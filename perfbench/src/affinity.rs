//! Read the CPUs this process may run on, and pin the calling thread to
//! one of them. Threads it spawns afterwards inherit the mask, so pinning
//! the main thread before a daemon boots puts client and daemon on the
//! same CPU. Raw syscalls: the toolchain has no libc crate.

/// Room for 1024 CPUs, as glibc's `cpu_set_t`.
type Mask = [u64; 16];

/// The CPUs the calling thread may run on, in increasing order. Empty
/// where the benchmark runs unpinned.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: Mask = [0; 16];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most
    // `size_of_val(&mask)` bytes into a live array.
    let ret = unsafe { affinity_syscall(GET, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if ret < 0 {
        return Err(format!("sched_getaffinity failed: {}", -ret));
    }
    Ok((0..mask.len() * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect())
}

/// Restrict the calling thread to `cpu`.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let mut mask: Mask = [0; 16];
    *mask.get_mut(cpu / 64).ok_or(format!("cpu {cpu} out of range"))? |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; the kernel reads
    // `size_of_val(&mask)` bytes from a live array.
    let ret = unsafe { affinity_syscall(SET, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if ret == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity(cpu {cpu}) failed: {}", -ret))
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    Ok(Vec::new())
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn pin_current_thread(_cpu: usize) -> Result<(), String> {
    Ok(())
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SET: usize = 203; // __NR_sched_setaffinity
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const GET: usize = 204; // __NR_sched_getaffinity
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SET: usize = 122;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const GET: usize = 123;

/// `sched_{set,get}affinity(0, len, mask)` for the calling thread.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn affinity_syscall(nr: usize, len: usize, mask: *mut u64) -> isize {
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") 0usize, in("rsi") len, in("rdx") mask,
        lateout("rcx") _, lateout("r11") _,
        options(nostack)
    );
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn affinity_syscall(nr: usize, len: usize, mask: *mut u64) -> isize {
    let ret: isize;
    std::arch::asm!(
        "svc #0",
        inlateout("x0") 0isize => ret,
        in("x1") len, in("x2") mask,
        in("x8") nr,
        options(nostack)
    );
    ret
}
