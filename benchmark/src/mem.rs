//! Peak resident memory, of this process and of its waited-for children.

/// `VmHWM` of this process in MB (10⁶ bytes), from `/proc/self/status`.
pub fn self_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (four longs) followed
/// by fourteen longs, the first of which is `ru_maxrss` in kB.
#[repr(C)]
struct Rusage([i64; 18]);

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set among the children this process has waited
/// for, in MB. `/proc/<pid>/status` is gone once a child has exited, so
/// the kernel's accounting is the only exact source.
pub fn children_peak_mb() -> f64 {
    let mut usage = Rusage([0; 18]);
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `Rusage` is `repr(C)` with that struct's size and alignment on
    // 64-bit Linux (144 bytes of longs), it is fully initialised, and the
    // pointer is valid for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.0[4] as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_a_peak() {
        let mb = self_peak_mb();
        assert!(mb > 0.5 && mb < 1e5, "VmHWM {mb} MB");
    }

    #[test]
    fn children_peak_counts_a_waited_child() {
        let status = std::process::Command::new("true")
            .status()
            .expect("spawn true");
        assert!(status.success());
        let mb = children_peak_mb();
        assert!(mb > 0.1 && mb < 1e5, "children ru_maxrss {mb} MB");
    }
}
