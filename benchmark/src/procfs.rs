//! Process accounting read from `/proc`, so the benchmark needs no libc.

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// these; Linux has reported 100 on every architecture since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process (all threads, dead ones included) has used in
/// user and in kernel mode.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("utime and stime are fields 14 and 15 of /proc/self/stat")
}

fn parse_cpu_ticks(stat: &str) -> Option<(f64, f64)> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are counted from after its closing parenthesis, where field 3 starts.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let kb = honeyfarm::obs::peak_rss_kb().expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_found_past_an_awkward_command_name() {
        let stat = "1234 (a b) c) S 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some((2.5, 0.5)));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn this_process_has_used_some_memory() {
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
