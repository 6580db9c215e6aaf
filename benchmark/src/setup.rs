//! Set-up: build the engine, start the server inside this process, and
//! load the stored sets over the wire.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bst_core::wal::FsyncPolicy;
use bst_server::client::Client;
use bst_server::protocol::Response;
use bst_server::server::{serve, serve_durable, ServerConfig, ServerHandle};
use bst_shard::{DurableBstSystem, DurableConfig};

use crate::data::Data;
use crate::place;

/// The WAL settings of `churn`: no fsync on either side of the ack, and
/// a checkpoint every 4096 records, so a run sees several.
pub fn durable_config() -> DurableConfig {
    DurableConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 4096,
    }
}

/// Where results, traces and the `churn` WAL go: `out/` beside this
/// package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up times of one start: engine build (with `DurableBstSystem::open`
/// for a durable stack), then the wire `CREATE`s up to the last ack.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub build_s: f64,
    pub load_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.load_s
    }
}

/// Builds the engine and serves it on an ephemeral loopback port; with a
/// WAL directory, through `DurableBstSystem::open` and `serve_durable`.
pub fn serve_engine(data: &Data, wal_dir: Option<&Path>) -> Result<ServerHandle, String> {
    match wal_dir {
        None => serve(data.build_engine(), "127.0.0.1:0", ServerConfig::default()),
        Some(dir) => {
            let durable = DurableBstSystem::open(dir, durable_config(), || data.build_engine())
                .map_err(|e| format!("durable open: {e}"))?;
            serve_durable(durable, "127.0.0.1:0", ServerConfig::default())
        }
    }
    .map_err(|e| format!("serve: {e}"))
}

/// A running server and the WAL directory it owns, if durable.
pub struct Stack {
    pub handle: ServerHandle,
    pub wal_dir: Option<PathBuf>,
}

impl Stack {
    /// Builds the engine, serves it on an ephemeral loopback port, and
    /// creates every stored set through a client, checking that set `i`
    /// gets id `i`. A durable stack starts from an empty WAL directory.
    pub fn start(data: &Data, wal_dir: Option<&Path>) -> Result<(Stack, SetupTimes), String> {
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let creates = data.create_requests();
        let t0 = Instant::now();
        let stack = Stack {
            handle: serve_engine(data, wal_dir)?,
            wal_dir: wal_dir.map(Path::to_path_buf),
        };
        let t1 = Instant::now();
        let mut client = stack.client()?;
        for (i, req) in creates.iter().enumerate() {
            match client.request(req) {
                Ok(Response::Created { id }) if id == i as u64 => {}
                other => return Err(format!("CREATE of set {i} answered {other:?}")),
            }
        }
        let times = SetupTimes {
            build_s: (t1 - t0).as_secs_f64(),
            load_s: t1.elapsed().as_secs_f64(),
        };
        Ok((stack, times))
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// A client whose server connection thread is pinned to `cpu`, if
    /// given; the thread that will drive the client pins itself.
    pub fn client_on(&self, cpu: Option<usize>) -> Result<Client, String> {
        let Some(cpu) = cpu else {
            return self.client();
        };
        let before = place::server_conn_threads();
        let mut client = self.client()?;
        // Answered, so the server has started the connection's thread.
        client.ping().map_err(|e| format!("PING: {e}"))?;
        let new: Vec<i32> = place::server_conn_threads()
            .difference(&before)
            .copied()
            .collect();
        match new[..] {
            [tid] => place::pin(tid, &[cpu]),
            _ => eprintln!(
                "warning: {} new server connection threads; left unpinned",
                new.len()
            ),
        }
        Ok(client)
    }

    /// Stops the server and waits for every thread it started, the WAL
    /// compactor included. The WAL directory stays on disk.
    pub fn shutdown(self) -> Option<PathBuf> {
        let Stack {
            mut handle,
            wal_dir,
        } = self;
        handle.shutdown();
        drop(handle);
        wal_dir
    }

    /// [`Self::shutdown`], then deletes the WAL directory.
    pub fn stop(self) {
        if let Some(dir) = self.shutdown() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Starts `repeats` stacks one after another, stopping each before the
/// next, and returns the last with every start's times. Set-up is
/// repeated because a single build is too noisy to bound.
pub fn start_repeated(
    data: &Data,
    wal_dir: Option<&Path>,
    repeats: usize,
) -> Result<(Stack, Vec<SetupTimes>), String> {
    let (mut stack, first) = Stack::start(data, wal_dir)?;
    let mut times = vec![first];
    for _ in 1..repeats {
        stack.stop();
        let (next, t) = Stack::start(data, wal_dir)?;
        stack = next;
        times.push(t);
    }
    Ok((stack, times))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
