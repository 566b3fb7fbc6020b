//! Pinning the calling thread to one CPU, undone on drop.
//!
//! Threads inherit their creator's CPU mask, so every thread spawned
//! while a [`Pin`] is alive (the runtime's worker and flusher, the load
//! threads) shares that one CPU.

const MASK_WORDS: usize = 16; // cpu_set_t: 1024 bits

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask before pinning.
pub struct Pin {
    saved: [u64; MASK_WORDS],
}

impl Pin {
    /// Pins the calling thread to the first CPU it may run on; `None`
    /// (and nothing changed) when the mask cannot be read or set.
    pub fn first_cpu() -> Option<Pin> {
        let mut saved = [0u64; MASK_WORDS];
        // SAFETY: `saved` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, MASK_WORDS * 8, saved.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..MASK_WORDS * 64).find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        let ok = unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) } == 0;
        ok.then_some(Pin { saved })
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // SAFETY: `saved` is a readable buffer of exactly the size passed.
        // A failure leaves the thread pinned, which only slows later work.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, self.saved.as_ptr()) };
    }
}
