//! Thread placement. A closed-loop client and the server thread that
//! serves its connection hand every request back and forth; left to the
//! scheduler, the pair lands on one CPU in some runs and on two in
//! others, and on this kind of guest a wake-up across CPUs costs about
//! half a `hot-sample` round trip. Pinning each pair to one CPU makes
//! every run measure the same thing.

use std::collections::BTreeSet;

/// `cpu_set_t` of glibc: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|&cpu| set.0[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`. A failure
/// only costs steadiness, so it is reported and the run goes on.
pub fn pin(tid: i32, cpus: &[usize]) {
    let mut set = CpuSet([0; 16]);
    for &cpu in cpus {
        set.0[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        eprintln!(
            "warning: cannot pin thread {tid} to CPUs {cpus:?}: {}",
            std::io::Error::last_os_error()
        );
    }
}

/// Thread ids of this process's server connection threads.
pub fn server_conn_threads() -> BTreeSet<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return BTreeSet::new();
    };
    tasks
        .filter_map(|t| {
            let t = t.ok()?;
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            if comm.trim_end() != "bst-server-conn" {
                return None;
            }
            t.file_name().to_str()?.parse().ok()
        })
        .collect()
}
