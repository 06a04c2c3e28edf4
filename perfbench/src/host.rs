//! Host-clock probes of this process, read from `/proc`.

/// User+system CPU seconds this process has used, all threads included.
/// Resolution is one scheduler tick (10 ms at the usual 100 Hz).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// `sysconf(_SC_CLK_TCK)` on Linux, fixed by the kernel ABI for `/proc`.
const TICKS_PER_SECOND: f64 = 100.0;

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Wall seconds of [`reference_work`] on the host this benchmark's
/// nominal figures were taken on (a 2-vCPU Intel Xeon VM, quiet
/// period). Host-clock metrics are scaled to that speed.
pub const PROBE_REF_S: f64 = 0.12;

/// Repetitions of the probe; the fastest one counts, so a probe that
/// was preempted midway does not read as a slow host.
const PROBE_REPS: usize = 3;

/// A fixed piece of single-threaded work with the serving simulator's
/// operation mix: a dependent integer hash chain, then hash-map updates
/// and lookups with floating-point math and short-lived allocations.
/// It does not call into the program, so a change to the program does
/// not change it.
fn reference_work() -> u64 {
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
    }
    let mut map: HashMap<u64, f64, Fixed> = HashMap::default();
    let mut sum = 0.0;
    for i in 0..1_200_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 33) % 50_000;
        *map.entry(key).or_insert(0.0) += (i as f64).sqrt();
        if let Some(v) = map.get(&(key ^ 1)) {
            sum += v.ln_1p();
        }
        if i % 7 == 0 {
            let v: Vec<f64> = (0..key % 64).map(|j| j as f64 * 1.5).collect();
            sum += v.iter().sum::<f64>();
        }
    }
    acc ^ sum.to_bits() ^ map.len() as u64
}

/// Wall seconds of the fastest of a few runs of [`reference_work`]: how
/// slow the host is right now. On a shared host the same serve takes
/// from 2.5 to 4.6 CPU seconds within minutes, as neighbours come and
/// go; this probe moves with it.
pub fn probe_s() -> f64 {
    (0..PROBE_REPS)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(reference_work());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// How much slower than the reference host the host ran across an
/// interval, from probes taken just before and just after it.
pub fn slowness(before_s: f64, after_s: f64) -> f64 {
    (before_s * after_s).sqrt() / PROBE_REF_S
}
