//! The host record printed with every result: the numbers only mean
//! something next to the machine that produced them.

use mpix::core::{available_backends, Backend};

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub l2: String,
    pub l3: String,
    pub avx: bool,
    pub jit: bool,
    pub profile: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        };
        let avx = field("flags").is_some_and(|f| f.split_whitespace().any(|x| x == "avx"));
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: field("model name").unwrap_or_else(|| "unknown".into()),
            l2: cache_size(2),
            l3: cache_size(3),
            avx,
            jit: available_backends().contains(&Backend::Jit),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu={:?} l2={} l3={} avx={} jit={} profile={}",
            self.nproc, self.cpu, self.l2, self.l3, self.avx, self.jit, self.profile
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {:?}, \"l2\": {:?}, \"l3\": {:?}, \"avx\": {}, \"jit\": {}, \"profile\": {:?}}}",
            self.nproc, self.cpu, self.l2, self.l3, self.avx, self.jit, self.profile
        )
    }
}

/// Size of the unified cache at `level` as sysfs reports it for cpu0.
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |p: String| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    (0..8)
        .find_map(|i| {
            let dir = format!("{base}/index{i}");
            let lv = read(format!("{dir}/level")).ok()?;
            let ty = read(format!("{dir}/type")).ok()?;
            (lv == level.to_string() && ty == "Unified")
                .then(|| read(format!("{dir}/size")).ok())
                .flatten()
        })
        .unwrap_or_else(|| "unknown".into())
}
