//! A description of the machine a result set was measured on.

use crate::json::Value;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn describe() -> Value {
    Value::obj([
        ("nproc", Value::Num(cores() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("kernel_isa", Value::str(mrsch_linalg::kernel_isa())),
        ("rustc", Value::str(rustc_version())),
        ("os", Value::str(std::env::consts::OS)),
    ])
}
