//! Tiny self-contained bench harness shared by the `[[bench]]` targets.
//!
//! The container has no registry access, so instead of criterion the
//! benches use this std-only timer: N timed samples of a closure, median /
//! mean / min and the median absolute deviation (MAD) in ns per
//! iteration, optional elements-per-second throughput, and a hand-rolled
//! JSON dump for archived snapshots (`BENCH_harness.json`).

// Shared by several bench targets; each uses a subset of the API.
#![allow(dead_code)]

use std::time::Instant;

/// One benchmark's measurements, in seconds per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub name: String,
    /// Seconds per iteration, one entry per sample.
    pub samples: Vec<f64>,
    /// Elements processed per iteration (for throughput lines), if any.
    pub elements: Option<u64>,
}

impl Measurement {
    pub fn median_secs(&self) -> f64 {
        median(self.samples.clone())
    }

    /// The median absolute deviation from [`Measurement::median_secs`]:
    /// the spread of the samples, robust to the odd slow one.
    pub fn mad_secs(&self) -> f64 {
        let median_secs = self.median_secs();
        median(self.samples.iter().map(|s| (s - median_secs).abs()).collect())
    }

    pub fn min_secs(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn mean_secs(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// The upper median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values[values.len() / 2]
}

/// Collects measurements and renders the report.
#[derive(Debug, Default)]
pub struct Harness {
    measurements: Vec<Measurement>,
}

impl Harness {
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` (`samples` samples of `iters` iterations each, after one
    /// warm-up iteration) and records the result under `name`.
    pub fn bench<R>(&mut self, name: &str, samples: u32, iters: u32, mut f: impl FnMut() -> R) {
        self.bench_elements(name, None, samples, iters, &mut f);
    }

    /// Like [`Harness::bench`], also recording `elements` per iteration so
    /// the report can show elements/second.
    pub fn bench_throughput<R>(
        &mut self,
        name: &str,
        elements: u64,
        samples: u32,
        iters: u32,
        mut f: impl FnMut() -> R,
    ) {
        self.bench_elements(name, Some(elements), samples, iters, &mut f);
    }

    fn bench_elements<R>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        samples: u32,
        iters: u32,
        f: &mut impl FnMut() -> R,
    ) {
        std::hint::black_box(f()); // warm-up
        let mut measured = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            measured.push(start.elapsed().as_secs_f64() / iters as f64);
        }
        let m = Measurement {
            name: name.to_string(),
            samples: measured,
            elements,
        };
        let per_iter = m.median_secs();
        let throughput = m
            .elements
            .map(|n| format!("  {:>10.0} elem/s", n as f64 / per_iter))
            .unwrap_or_default();
        println!(
            "{:40} {:>12.1} ns/iter (min {:>12.1}, mad {:>10.1}){}",
            m.name,
            per_iter * 1e9,
            m.min_secs() * 1e9,
            m.mad_secs() * 1e9,
            throughput
        );
        self.measurements.push(m);
    }

    /// The recorded measurements.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Serialises all measurements as a JSON object (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, m) in self.measurements.iter().enumerate() {
            let comma = if i + 1 < self.measurements.len() { "," } else { "" };
            let elements = m.elements.map(|n| n.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "  \"{}\": {{\"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"mad_ns\": {:.1}, \"elements\": {}}}{}\n",
                m.name,
                m.median_secs() * 1e9,
                m.mean_secs() * 1e9,
                m.min_secs() * 1e9,
                m.mad_secs() * 1e9,
                elements,
                comma
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Writes the JSON snapshot if `--json PATH` was passed on the command
    /// line (cargo forwards arguments after `--`).
    pub fn maybe_write_json(&self) -> std::io::Result<()> {
        let args: Vec<String> = std::env::args().collect();
        if let Some(pos) = args.iter().position(|a| a == "--json") {
            if let Some(path) = args.get(pos + 1) {
                std::fs::write(path, self.to_json())?;
                eprintln!("wrote {path}");
            }
        }
        Ok(())
    }
}
