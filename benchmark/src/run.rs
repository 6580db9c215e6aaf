//! The untraced run: set-up, a warm-up, then a measured window of
//! closed-loop clients, every answer checked. All end-to-end metrics
//! come from here; their timings are counted in reference round trips
//! (see [`crate::reference`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bst_server::client::Client;
use bst_shard::DurableBstSystem;

use crate::data::Data;
use crate::place;
use crate::reference::{Probe, Timeline, EVERY};
use crate::report::{Metric, Outcome};
use crate::setup::{durable_config, out_dir, peak_rss_mib, start_repeated, Stack};
use crate::stats::{median, percentile, supports};
use crate::workload::{Stream, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The warm-up before the measured window: a fifth of the window, at
/// most 3 s. It fills the session's handle cache and the allocator.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 5.0).min(3.0))
}

/// One request of the measured window.
struct Sample {
    /// Completion time, seconds into the measured window.
    done_s: f64,
    latency_us: f64,
    write: bool,
}

/// One connection's run: its requests and its reference timings.
#[derive(Default)]
struct ConnLog {
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    /// `(seconds into the window, µs per reference round trip)`.
    reference: Vec<(f64, f64)>,
    errors: Vec<String>,
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        workload,
        seed,
        seconds,
        traced: false,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        extra: Vec::new(),
    };
    let data = Arc::new(Data::generate(seed));
    let wal_dir = workload
        .durable()
        .then(|| out_dir().join(format!("wal-{}", std::process::id())));
    let (stack, setups) = match start_repeated(&data, wal_dir.as_deref(), SETUP_REPEATS) {
        Ok(started) => started,
        Err(e) => {
            out.errors.push(format!("set-up: {e}"));
            return out;
        }
    };
    let streams = workload.streams(&data, seed);
    let cpus = workload.cpus(streams.len());
    let clients: Vec<Client> = match cpus.iter().map(|&cpu| stack.client_on(cpu)).collect() {
        Ok(clients) => clients,
        Err(e) => {
            out.errors.push(e);
            stack.stop();
            return out;
        }
    };

    let warm_end = Instant::now() + warmup(seconds);
    let end = warm_end + Duration::from_secs_f64(seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(clients)
            .zip(cpus)
            .map(|((stream, client), cpu)| {
                let data = &data;
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        place::pin(0, &[cpu]);
                    }
                    match Probe::start(cpu) {
                        Ok(probe) => drive(client, probe, data, stream, warm_end, end),
                        Err(e) => ConnLog {
                            errors: vec![format!("reference echo: {e}")],
                            ..ConnLog::default()
                        },
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Before the recovery check, which holds a second engine.
    let peak_rss = peak_rss_mib();
    let mut reads_rtt = Vec::new();
    let mut ops_per_rtt = 0.0;
    let mut reference_us = Vec::new();
    let mut samples = Vec::new();
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.errors.extend(log.errors);
        let Some(line) = Timeline::new(&log.reference) else {
            out.errors
                .push("a connection has no reference timings".into());
            continue;
        };
        reads_rtt.extend(
            log.samples
                .iter()
                .filter(|s| !s.write)
                .map(|s| s.latency_us / line.at(s.done_s)),
        );
        ops_per_rtt += log.samples.len() as f64 / line.round_trips(seconds);
        reference_us.push(line.median_us());
        samples.extend(log.samples);
    }
    let durable = stack
        .handle
        .state()
        .durable()
        .map(|d| (d.obs(), d.system().to_bytes()));
    match durable {
        Some((obs, live)) => {
            out.extra.push(Metric::new(
                "wal.checkpoints",
                obs.checkpoints.get() as f64,
                "count",
                1,
            ));
            out.extra.push(Metric::new(
                "wal.last_checkpoint_us",
                obs.last_checkpoint_us.get() as f64,
                "us",
                1,
            ));
            out.attempted += 1;
            if let Err(e) = recovery_check(stack, &live) {
                out.failed += 1;
                out.errors.push(e);
            }
        }
        None => stack.stop(),
    }

    let latencies = |write: bool| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.write == write)
            .map(|s| s.latency_us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (reads, writes) = (latencies(false), latencies(true));
    reads_rtt.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail = workload.tail();
    let setup: Vec<f64> = setups.iter().map(|t| t.total_s()).collect();
    out.metrics = vec![
        Metric::new("setup_s", median(&setup), "s", setup.len()),
        Metric::new("p50_rtt", pct(&reads_rtt, 0.5), "rtt", reads_rtt.len()),
        Metric::new("ops_per_mrtt", ops_per_rtt * 1e6, "1/Mrtt", n),
        Metric::new("peak_rss_mib", peak_rss, "MiB", 1),
    ];
    out.extra.extend([
        Metric::new("tail_rtt", pct(&reads_rtt, tail), "rtt", reads_rtt.len()),
        Metric::new("rtt_us", median(&reference_us), "us", reference_us.len()),
        Metric::new("ops_per_s", n as f64 / seconds, "1/s", n),
        Metric::new("p50_us", pct(&reads, 0.5), "us", reads.len()),
        Metric::new("tail_us", pct(&reads, tail), "us", reads.len()),
    ]);
    if !writes.is_empty() {
        out.extra.extend([
            Metric::new("write_p50_us", pct(&writes, 0.5), "us", writes.len()),
            Metric::new("write_p99_us", pct(&writes, 0.99), "us", writes.len()),
        ]);
    }
    if !supports(reads.len(), tail) {
        eprintln!(
            "warning: {} reads put fewer than ten beyond p{}; tail_us is not a tail here",
            reads.len(),
            tail * 100.0
        );
    }
    out
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(f64::NAN)
}

/// Seconds from `origin` to `t`, negative before it.
fn seconds_after(t: Instant, origin: Instant) -> f64 {
    match t.checked_duration_since(origin) {
        Some(d) => d.as_secs_f64(),
        None => -(origin - t).as_secs_f64(),
    }
}

/// One closed-loop connection: sends its stream's next request as soon as
/// the previous answer is in and checked, until `end`, and times the
/// reference echo between two requests every [`EVERY`], warm-up
/// included. Requests sent before `warm_end` are checked but not
/// measured; so is one that straddles `end`.
fn drive(
    mut client: Client,
    mut probe: Probe,
    data: &Data,
    mut stream: Box<dyn Stream>,
    warm_end: Instant,
    end: Instant,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut next_probe = Instant::now();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if now >= next_probe {
            match probe.measure() {
                Ok(us) => log.reference.push((seconds_after(now, warm_end), us)),
                Err(e) => {
                    log.errors.push(format!("reference echo: {e}"));
                    break;
                }
            }
            next_probe = now + EVERY;
        }
        let op = stream.next_op();
        let sent = Instant::now();
        let reply = client.request(&op.req);
        let done = Instant::now();
        log.attempted += 1;
        let ok = match &reply {
            Ok(resp) => {
                stream.observe(resp);
                op.check.verify(data, resp)
            }
            Err(_) => false,
        };
        if !ok {
            log.failed += 1;
            if log.errors.len() < 4 {
                log.errors.push(format!("{} answered {reply:?}", op.name()));
            }
        }
        if sent >= warm_end && done <= end {
            log.samples.push(Sample {
                done_s: (done - warm_end).as_secs_f64(),
                latency_us: (done - sent).as_secs_f64() * 1e6,
                write: op.is_write(),
            });
        }
    }
    log
}

/// After the window, the live engine's snapshot must equal what
/// `DurableBstSystem::open` recovers from the WAL directory.
fn recovery_check(stack: Stack, live: &[u8]) -> Result<(), String> {
    let dir = stack
        .shutdown()
        .ok_or("durable stack without a WAL directory")?;
    let mut rebuilt = false;
    let recovered = DurableBstSystem::open(&dir, durable_config(), || {
        rebuilt = true;
        bst_shard::ShardedBstSystem::builder(1).shards(1).build()
    })
    .map_err(|e| format!("recovery: {e}"));
    let verdict = match recovered {
        Ok(_) if rebuilt => Err("recovery found no checkpoint".into()),
        Ok(d) if d.system().to_bytes() == live => Ok(()),
        Ok(_) => Err("recovered engine differs from the live engine".into()),
        Err(e) => Err(e),
    };
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_after_is_signed() {
        let origin = Instant::now();
        let later = origin + Duration::from_millis(1500);
        assert_eq!(seconds_after(later, origin), 1.5);
        assert_eq!(seconds_after(origin, later), -1.5);
    }
}
