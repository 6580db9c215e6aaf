//! A workload process's result: the metric lines it prints, the one-line
//! JSON result that ends its output, and the file it leaves in `out/`.

use crate::json::Json;
use crate::setup::out_dir;
use crate::workload::Workload;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (requests, runs, replays).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this mode.
    pub metrics: Vec<Metric>,
    /// Further numbers that hold for some workloads only; printed and
    /// kept in the result file, never in the JSON result line.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// One line per metric: `workload metric value unit (n=samples)`.
    pub fn print_lines(&self) {
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "{} {} {} {} (n={})",
                self.workload.name(),
                m.name,
                m.value,
                m.unit,
                m.samples
            );
        }
        for e in &self.errors {
            println!("{} error {e}", self.workload.name());
        }
    }

    fn result_fields(&self) -> [(&'static str, Json); 4] {
        [
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ]
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj(self.result_fields())
    }

    /// Writes `out/<workload>-seed<N>[.trace].json`: the result plus the
    /// run's settings, the extra numbers and the errors.
    pub fn save(&self) -> std::io::Result<()> {
        let settings = [
            ("workload", Json::Str(self.workload.name().into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.traced)),
        ];
        let errors = Json::Arr(self.errors.iter().cloned().map(Json::Str).collect());
        let doc = Json::obj(
            settings
                .into_iter()
                .chain(self.result_fields())
                .chain([("extra", metrics_json(&self.extra)), ("errors", errors)]),
        );
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let suffix = if self.traced { ".trace" } else { "" };
        let name = format!("{}-seed{}{suffix}.json", self.workload.name(), self.seed);
        std::fs::write(dir.join(name), doc.render() + "\n")
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}
