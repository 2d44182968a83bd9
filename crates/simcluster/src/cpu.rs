//! Where a batch's measuring threads run.
//!
//! A new thread starts on its parent's CPU. Where the scheduler balances
//! load it soon moves to an idle one. Where it does not (a cpuset with
//! `sched_load_balance` off, as in some virtual machines), it stays there
//! and runs only when its parent blocks, so a batch would be measured one
//! chunk after another. [`spread`] moves such a thread onto another CPU
//! the process may use. It changes nothing but the calling thread's own
//! affinity, and a measuring thread lives only as long as its chunk.
#![allow(unsafe_code)]

/// Moves the calling thread off CPU `parent` when it was started there,
/// onto the `k`-th other CPU the thread may run on (cycling). Does
/// nothing when the thread already runs elsewhere, on other platforms, or
/// if the platform refuses.
pub(crate) fn spread(parent: Option<usize>, k: usize) {
    imp::spread(parent, k);
}

/// The CPU the calling thread runs on, where the platform says.
pub(crate) fn current() -> Option<usize> {
    imp::current()
}

#[cfg(target_os = "linux")]
mod imp {
    use std::mem::size_of;

    /// A `cpu_set_t`: one bit per CPU, 1,024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub(super) fn current() -> Option<usize> {
        // SAFETY: takes no arguments and only reads the caller's CPU.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    pub(super) fn spread(parent: Option<usize>, k: usize) {
        let Some(parent) = parent else { return };
        if current() != Some(parent) {
            return;
        }
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
            return;
        }
        let others: Vec<usize> = (0..allowed.len() * 64)
            .filter(|&cpu| cpu != parent && allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        let Some(&cpu) = others.get(k % others.len().max(1)) else {
            return;
        };
        let mut only: CpuSet = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a readable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread. A refusal leaves it where it is.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &only) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub(super) fn current() -> Option<usize> {
        None
    }

    pub(super) fn spread(_parent: Option<usize>, _k: usize) {}
}
