//! The reference round trip: the unit of the end-to-end timings.
//!
//! On a shared host each CPU runs fast for a while and then up to half
//! slower, for seconds at a time, and how much of a run falls in each
//! state drifts from run to run: the median `hot-sample` latency of runs
//! of the same code moved by a third, and a bare loopback echo timed on
//! the same CPU moved with it. So each client thread also times a 64-byte
//! echo over loopback TCP, against an echo thread on the CPU its
//! connection's server thread runs on, every [`EVERY`]; a request's
//! latency is then counted in round trips of that echo at the time it
//! completed, and the window's length likewise. A change to the program
//! moves its time and not the echo's, so it moves the ratio; a slow
//! spell of the host moves both.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::place;
use crate::stats::median;

/// How often a client thread times the echo, between two requests.
pub const EVERY: Duration = Duration::from_millis(100);

/// Round trips per timing, and the echoed message's size.
const ROUND_TRIPS: usize = 20;
const MESSAGE: usize = 64;

/// A request is measured against the median of the timings within this
/// many seconds of its completion: a CPU's state holds for seconds, one
/// timing of 20 round trips is noisy.
const SMOOTH_S: f64 = 0.5;

/// Echo threads, one per CPU a connection's server work runs on, and the
/// client ends that time them. Owned by the client thread that measures.
pub struct Probe {
    ends: Vec<(usize, TcpStream, JoinHandle<()>)>,
    /// The CPUs the measuring thread returns to after visiting each
    /// probed CPU; `None` when it is pinned to the one CPU probed.
    home: Option<Vec<usize>>,
}

impl Probe {
    /// Echo threads on `cpu`, where the calling thread is pinned too, or,
    /// for an unpinned connection, on every allowed CPU.
    pub fn start(cpu: Option<usize>) -> io::Result<Probe> {
        let (cpus, home) = match cpu {
            Some(cpu) => (vec![cpu], None),
            None => {
                let all = place::allowed_cpus();
                (all.clone(), Some(all))
            }
        };
        let mut probe = Probe {
            ends: Vec::new(),
            home,
        };
        for cpu in cpus {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let client = TcpStream::connect(listener.local_addr()?)?;
            let (server, _) = listener.accept()?;
            client.set_nodelay(true)?;
            server.set_nodelay(true)?;
            let echo = std::thread::Builder::new()
                .name("bst-bench-echo".into())
                .spawn(move || {
                    place::pin(0, &[cpu]);
                    echo(server);
                })?;
            probe.ends.push((cpu, client, echo));
        }
        Ok(probe)
    }

    /// Microseconds per round trip: the mean over the probed CPUs, the
    /// calling thread moving to each in turn if it is not pinned.
    pub fn measure(&mut self) -> io::Result<f64> {
        let mut total = 0.0;
        for (cpu, stream, _) in &mut self.ends {
            if self.home.is_some() {
                place::pin(0, &[*cpu]);
            }
            let mut buf = [0u8; MESSAGE];
            let start = Instant::now();
            for _ in 0..ROUND_TRIPS {
                stream.write_all(&buf)?;
                stream.read_exact(&mut buf)?;
            }
            total += start.elapsed().as_secs_f64() * 1e6 / ROUND_TRIPS as f64;
        }
        if let Some(home) = &self.home {
            place::pin(0, home);
        }
        Ok(total / self.ends.len() as f64)
    }
}

fn echo(mut stream: TcpStream) {
    let mut buf = [0u8; MESSAGE];
    while stream.read_exact(&mut buf).is_ok() && stream.write_all(&buf).is_ok() {}
}

impl Drop for Probe {
    /// Closes the client ends, which ends the echo threads, and waits for
    /// them.
    fn drop(&mut self) {
        for (_, stream, _) in &self.ends {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, _, echo) in self.ends.drain(..) {
            let _ = echo.join();
        }
    }
}

/// One connection's reference round trips over a run, smoothed.
pub struct Timeline {
    /// Timing instants, seconds into the measured window (negative in the
    /// warm-up), ascending.
    t: Vec<f64>,
    /// Microseconds: the median of the timings within [`SMOOTH_S`] of
    /// each instant.
    rtt: Vec<f64>,
}

impl Timeline {
    /// From `(seconds into the window, µs per round trip)` timings in
    /// time order; `None` if there are none.
    pub fn new(timings: &[(f64, f64)]) -> Option<Timeline> {
        if timings.is_empty() {
            return None;
        }
        let t: Vec<f64> = timings.iter().map(|&(at, _)| at).collect();
        let rtt = t
            .iter()
            .map(|&at| {
                let lo = t.partition_point(|&x| x < at - SMOOTH_S);
                let hi = t.partition_point(|&x| x <= at + SMOOTH_S);
                let near: Vec<f64> = timings[lo..hi].iter().map(|&(_, us)| us).collect();
                median(&near)
            })
            .collect();
        Some(Timeline { t, rtt })
    }

    /// The round trip at `at`: the smoothed value of the nearest timing.
    pub fn at(&self, at: f64) -> f64 {
        let i = self.t.partition_point(|&x| x < at);
        let nearest = if i == self.t.len() || (i > 0 && at - self.t[i - 1] <= self.t[i] - at) {
            i - 1
        } else {
            i
        };
        self.rtt[nearest]
    }

    /// How many round trips fit in the window `[0, end_s]`, each stretch
    /// of it counted at the round trip of its nearest timing.
    pub fn round_trips(&self, end_s: f64) -> f64 {
        let n = self.t.len();
        (0..n)
            .map(|k| {
                let from = if k == 0 {
                    0.0
                } else {
                    ((self.t[k - 1] + self.t[k]) / 2.0).max(0.0)
                };
                let to = if k + 1 == n {
                    end_s
                } else {
                    ((self.t[k] + self.t[k + 1]) / 2.0).min(end_s)
                };
                (to - from).max(0.0) * 1e6 / self.rtt[k]
            })
            .sum()
    }

    /// The median smoothed round trip, in microseconds.
    pub fn median_us(&self) -> f64 {
        median(&self.rtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_reference_counts_the_window_in_round_trips() {
        let timings: Vec<(f64, f64)> = (-5..=100).map(|i| (i as f64 * 0.1, 20.0)).collect();
        let line = Timeline::new(&timings).unwrap();
        assert_eq!(line.at(3.33), 20.0);
        assert_eq!(line.at(-1.0), 20.0);
        assert_eq!(line.at(50.0), 20.0);
        // 10 s at 20 µs per round trip.
        assert!((line.round_trips(10.0) - 500_000.0).abs() < 1e-6);
        assert_eq!(line.median_us(), 20.0);
    }

    #[test]
    fn the_window_is_counted_at_the_round_trip_of_each_stretch() {
        // 10 µs for the first 5 s, 40 µs after: 500k + 125k round trips.
        // Timings every 1/8 s, so each smoothing window holds nine.
        let timings: Vec<(f64, f64)> = (0..80)
            .map(|i| {
                let at = i as f64 * 0.125 + 0.0625;
                (at, if at < 5.0 { 10.0 } else { 40.0 })
            })
            .collect();
        let line = Timeline::new(&timings).unwrap();
        assert_eq!(line.at(1.0), 10.0);
        assert_eq!(line.at(9.0), 40.0);
        assert!((line.round_trips(10.0) - 625_000.0).abs() < 1e-6);
    }

    #[test]
    fn one_odd_timing_is_smoothed_away() {
        let mut timings: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 0.1, 20.0)).collect();
        timings[25].1 = 500.0;
        let line = Timeline::new(&timings).unwrap();
        assert_eq!(line.at(2.5), 20.0);
        assert_eq!(Timeline::new(&[]).map(|l| l.at(0.0)), None);
    }

    #[test]
    fn the_probe_times_a_loopback_echo_and_stops_its_threads() {
        let mut probe = Probe::start(None).unwrap();
        let us = probe.measure().unwrap();
        assert!(us > 0.0 && us.is_finite(), "{us}");
        drop(probe);
    }
}
