//! The fake machine identity presented by the emulated shell.
//!
//! Cowrie impersonates a small Linux box; what exactly `uname`, `free`, and
//! `cat /proc/cpuinfo` print comes from a profile like this one. Keeping the
//! identity in data (rather than hard-coded strings) lets the farm deploy
//! honeypots with subtly different personalities and lets ablation benches
//! measure whether that matters.

/// Machine identity used to render system-information command output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemProfile {
    /// Hostname, e.g. `svr04`.
    pub hostname: String,
    /// Kernel release, e.g. `4.14.67`.
    pub kernel_version: String,
    /// Kernel build date string.
    pub build_date: String,
    /// Machine hardware name (`uname -m`).
    pub arch: String,
    /// CPU model string for /proc/cpuinfo.
    pub cpu_model: String,
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Total RAM in megabytes.
    pub mem_total_mb: u64,
    /// A non-root local account present in /etc/passwd.
    pub service_user: String,
}

impl Default for SystemProfile {
    fn default() -> Self {
        SystemProfile {
            hostname: "svr04".to_string(),
            kernel_version: "4.14.67".to_string(),
            build_date: "Tue Aug 28 10:10:18 UTC 2018".to_string(),
            arch: "x86_64".to_string(),
            cpu_model: "Intel(R) Celeron(R) CPU J1900 @ 1.99GHz".to_string(),
            cpu_cores: 2,
            mem_total_mb: 1024,
            service_user: "service".to_string(),
        }
    }
}

impl SystemProfile {
    /// A profile derived from an index, used by the farm so the 221 honeypots
    /// don't all present the identical hostname (which would be a trivially
    /// fingerprintable tell; cf. the honeypot-detection literature the paper
    /// cites).
    pub fn for_node(index: u32) -> Self {
        let archs = ["x86_64", "i686", "armv7l", "mips"];
        let kernels = ["4.14.67", "4.19.0", "3.10.14", "5.10.103"];
        let cpus = [
            "Intel(R) Celeron(R) CPU J1900 @ 1.99GHz",
            "ARMv7 Processor rev 5 (v7l)",
            "Intel(R) Atom(TM) CPU D525 @ 1.80GHz",
            "MIPS 24Kc V5.0",
        ];
        let i = index as usize;
        SystemProfile {
            hostname: format!("svr{:02}", (index % 64) + 1),
            kernel_version: kernels[i % kernels.len()].to_string(),
            build_date: "Tue Aug 28 10:10:18 UTC 2018".to_string(),
            arch: archs[i % archs.len()].to_string(),
            cpu_model: cpus[i % cpus.len()].to_string(),
            cpu_cores: 1 + (index % 4),
            mem_total_mb: [256u64, 512, 1024, 2048][i % 4],
            service_user: "service".to_string(),
        }
    }

    /// Render `/proc/cpuinfo`.
    pub fn cpuinfo(&self) -> String {
        let mut out = String::new();
        for core in 0..self.cpu_cores {
            out.push_str(&format!(
                "processor\t: {core}\nvendor_id\t: GenuineIntel\nmodel name\t: {}\ncpu MHz\t\t: 1999.000\ncache size\t: 1024 KB\n\n",
                self.cpu_model
            ));
        }
        out
    }

    /// Render `/proc/meminfo`.
    pub fn meminfo(&self) -> String {
        let total_kb = self.mem_total_mb * 1024;
        let free_kb = total_kb * 3 / 5;
        format!(
            "MemTotal:       {total_kb:>8} kB\nMemFree:        {free_kb:>8} kB\nBuffers:           12340 kB\nCached:           145624 kB\nSwapTotal:             0 kB\nSwapFree:              0 kB\n"
        )
    }

    /// Render the `uname -a` line.
    pub fn uname_all(&self) -> String {
        format!(
            "Linux {} {} #1 SMP {} {} GNU/Linux",
            self.hostname, self.kernel_version, self.build_date, self.arch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_renders() {
        let p = SystemProfile::default();
        assert!(p.uname_all().starts_with("Linux svr04 4.14.67"));
        assert!(p.cpuinfo().matches("processor").count() == 2);
        assert!(p.meminfo().contains("MemTotal"));
    }

    #[test]
    fn node_profiles_vary() {
        let a = SystemProfile::for_node(0);
        let b = SystemProfile::for_node(1);
        assert_ne!(a.hostname, b.hostname);
        assert_ne!(a.arch, b.arch);
    }

    #[test]
    fn node_profiles_deterministic() {
        assert_eq!(SystemProfile::for_node(17), SystemProfile::for_node(17));
    }
}
