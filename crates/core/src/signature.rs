//! Workload signatures: the model inputs CAMP extracts from raw counters.
//!
//! A [`Signature`] is everything the §4 predictors need from one profiling
//! run — per-component stall exposures, the latency/MLP point, and the two
//! cache-model reliance ratios — mapped from the platform's counter flavour
//! exactly as §4.4.3 prescribes:
//!
//! - `s_LLC = P3`, `s_Cache = P2 − P3` (SPR/EMR) or `P1 − P2` (SKX),
//!   `s_SB = P6`;
//! - `L = P11/P12`, `MLP = P11/P13` (Little's law over the offcore
//!   occupancy counters);
//! - `R_LFB-hit = P5/(P4+P5)`;
//! - `R_Mem = (P7−P8)/P7` on SKX, `(P14/P15)·(P16/(P16+P17))` on SPR/EMR.

use crate::error::ModelError;
use camp_obs::json::{Kind, ParseError, Reader};
use camp_obs::Json;
use camp_pmu::{derived, CounterSet};
use camp_sim::{CounterFlavor, RunReport};

/// A named accessor for one [`Signature`] field.
type Field = (&'static str, fn(&Signature) -> f64);

/// The signature fields in wire order: `(name, getter)` pairs shared by
/// the JSON writer and reader and the finiteness check, so a field added
/// to [`Signature`] cannot be forgotten in one of them.
const FIELDS: [Field; 9] = [
    ("cycles", |s| s.cycles),
    ("s_llc", |s| s.s_llc),
    ("s_cache", |s| s.s_cache),
    ("s_sb", |s| s.s_sb),
    ("memory_active", |s| s.memory_active),
    ("latency", |s| s.latency),
    ("mlp", |s| s.mlp),
    ("r_lfb_hit", |s| s.r_lfb_hit),
    ("r_mem", |s| s.r_mem),
];

/// Per-component stall exposure and model factors from one profiling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    /// Total cycles `c`.
    pub cycles: f64,
    /// Demand-read stall cycles on an L3 miss (`s_LLC`).
    pub s_llc: f64,
    /// Cache/prefetch stall cycles (`s_Cache`, flavour-specific).
    pub s_cache: f64,
    /// Store-buffer-full stall cycles (`s_SB`).
    pub s_sb: f64,
    /// Memory-active cycles `C` (`P13`: cycles with a demand offcore read
    /// pending) — the base quantity of the Eq. 2–4 derivation.
    pub memory_active: f64,
    /// Average offcore demand-read latency in cycles (0 when no offcore
    /// reads occurred).
    pub latency: f64,
    /// Demand-read MLP (0 when no offcore reads occurred).
    pub mlp: f64,
    /// LFB-hit reliance ratio `R_LFB-hit` in `[0, 1]`.
    pub r_lfb_hit: f64,
    /// Prefetch-from-memory reliance `R_Mem` in `[0, 1]`.
    pub r_mem: f64,
}

impl Signature {
    /// Extracts a signature from raw counters with the given counter
    /// flavour.
    pub fn from_counters(counters: &CounterSet, flavor: CounterFlavor) -> Self {
        use camp_pmu::Event::*;
        let cycles = counters.get_f64(Cycles).max(1.0);
        let p1 = counters.get_f64(StallsL1dMiss);
        let p2 = counters.get_f64(StallsL2Miss);
        let p3 = counters.get_f64(StallsL3Miss);
        let s_cache = match flavor {
            CounterFlavor::Skx => (p1 - p2).max(0.0),
            CounterFlavor::SprEmr => (p2 - p3).max(0.0),
        };
        let r_mem = match flavor {
            // SKX prefers the precise L1-prefetch response counters, but
            // they carry no signal when the L1 prefetcher issues little
            // offcore traffic (the L2 streamer covering everything); fall
            // back to the CHA proxy then.
            CounterFlavor::Skx => {
                if counters.get(camp_pmu::Event::PfL1dAnyResponse) >= 64 {
                    derived::r_mem_skx(counters)
                } else {
                    derived::r_mem_spr(counters)
                }
            }
            CounterFlavor::SprEmr => derived::r_mem_spr(counters),
        };
        Signature {
            cycles,
            memory_active: counters.get_f64(OroCycWDemandRd),
            s_llc: p3,
            s_cache,
            s_sb: counters.get_f64(BoundOnStores),
            latency: derived::demand_read_latency(counters).unwrap_or(0.0),
            mlp: derived::mlp(counters).unwrap_or(0.0),
            r_lfb_hit: derived::lfb_hit_ratio(counters).unwrap_or(0.0),
            r_mem: r_mem.unwrap_or(0.0),
        }
    }

    /// Extracts a signature from a simulation run, using the platform's
    /// counter flavour.
    pub fn from_report(report: &RunReport) -> Self {
        Signature::from_counters(&report.counters, report.platform.config().counter_flavor)
    }

    /// Baseline latency tolerance `L / MLP` (the x-axis of Figure 4f; what
    /// SoarAlto calls AOL). Zero when the run had no offcore reads.
    pub fn latency_tolerance(&self) -> f64 {
        if self.mlp > 0.0 {
            self.latency / self.mlp
        } else {
            0.0
        }
    }

    /// `s_LLC / c`: the demand-read stall exposure factor of Eq. 5.
    pub fn llc_stall_fraction(&self) -> f64 {
        self.s_llc / self.cycles
    }

    /// `C / c`: the memory-active fraction of Eq. 2–4. The paper proxies
    /// `C` with `s_LLC` and folds the conversion into `k_drd`; this
    /// reproduction uses `C` (= `P13`, already one of the 12 counters)
    /// directly because the hidden fraction `s_LLC/C` varies more across
    /// the synthetic suite than on the authors' testbed (their Figure 4b).
    pub fn memory_active_fraction(&self) -> f64 {
        self.memory_active / self.cycles
    }

    /// `s_Cache / c`: the cache stall exposure factor of Eq. 6.
    pub fn cache_stall_fraction(&self) -> f64 {
        self.s_cache / self.cycles
    }

    /// `s_SB / c`: the store stall exposure factor of Eq. 7.
    pub fn store_stall_fraction(&self) -> f64 {
        self.s_sb / self.cycles
    }

    /// Rejects a signature whose counter-derived fields picked up a NaN or
    /// infinity upstream, naming the offending field and the workload (or
    /// request) label the caller supplies, and one whose `cycles` is below
    /// the 1-cycle floor [`Signature::from_counters`] clamps to (the
    /// stall fractions divide by it). Every model entry point that
    /// accepts an externally supplied signature — the interleave
    /// constructors, the serving layer — funnels through this check.
    pub fn check(&self, label: &str) -> Result<(), ModelError> {
        for (field, get) in FIELDS {
            let value = get(self);
            if !value.is_finite() {
                return Err(ModelError::NonFiniteSignature {
                    workload: label.to_string(),
                    field,
                    value,
                });
            }
        }
        if self.cycles < 1.0 {
            return Err(ModelError::CyclesBelowOne {
                workload: label.to_string(),
                value: self.cycles,
            });
        }
        Ok(())
    }

    /// Serialises to a JSON object (the `camp-serve` wire form), with the
    /// fields in declaration order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            FIELDS
                .iter()
                .map(|(name, get)| (name.to_string(), Json::Num(get(self))))
                .collect(),
        )
    }

    /// Reads the wire form at `reader`'s cursor. Every field is required
    /// and must be a JSON number; unknown members are rejected (a
    /// misspelled field silently defaulting to zero would skew
    /// predictions, not fail them). When a member repeats, the first one
    /// counts.
    ///
    /// The outer error is a JSON syntax error. The inner one says why a
    /// well-formed value is no signature: the first unknown member, else
    /// the first field, in wire order, that is missing or not a number.
    /// The value is read to its end either way, so a syntax error further
    /// on is still found.
    pub fn read_json(reader: &mut Reader<'_>) -> Result<Result<Signature, String>, ParseError> {
        if reader.peek()? != Kind::Object {
            reader.skip()?;
            return Ok(Err("signature must be a JSON object".to_string()));
        }
        // Per field: unseen, seen but not a number, or its value.
        let mut values = [None::<Option<f64>>; FIELDS.len()];
        let mut unknown = None;
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match FIELDS.iter().position(|(name, _)| *name == key) {
                Some(i) if values[i].is_none() => values[i] = Some(reader.number_or_skip()?),
                Some(_) => reader.skip()?,
                None => {
                    unknown.get_or_insert(key);
                    reader.skip()?;
                }
            }
        }
        if let Some(key) = unknown {
            return Ok(Err(format!("unknown signature field '{key}'")));
        }
        let mut fields = [0.0; FIELDS.len()];
        for ((field, value), (name, _)) in fields.iter_mut().zip(values).zip(FIELDS) {
            *field = match value {
                None => return Ok(Err(format!("signature is missing field '{name}'"))),
                Some(None) => return Ok(Err(format!("signature field '{name}' must be a number"))),
                Some(Some(value)) => value,
            };
        }
        let [cycles, s_llc, s_cache, s_sb, memory_active, latency, mlp, r_lfb_hit, r_mem] = fields;
        Ok(Ok(Signature {
            cycles,
            s_llc,
            s_cache,
            s_sb,
            memory_active,
            latency,
            mlp,
            r_lfb_hit,
            r_mem,
        }))
    }
}

/// Melody-style ground-truth attribution (§2.4): per-component slowdown
/// measured from a DRAM run *and* a slow-tier run of the same workload.
/// CAMP's predictions are evaluated against these components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeasuredComponents {
    /// Demand-read slowdown `ΔP3 / c_dram`.
    pub drd: f64,
    /// Cache slowdown `Δs_Cache / c_dram`.
    pub cache: f64,
    /// Store slowdown `ΔP6 / c_dram`.
    pub store: f64,
    /// Total measured slowdown `(c_slow - c_dram) / c_dram`.
    pub total: f64,
}

impl MeasuredComponents {
    /// Attributes slowdown components from paired runs.
    ///
    /// # Panics
    ///
    /// Panics if the runs are from different platforms (their counter
    /// flavours would not be comparable).
    pub fn attribute(dram: &RunReport, slow: &RunReport) -> Self {
        assert_eq!(dram.platform, slow.platform, "runs must share a platform");
        let d = Signature::from_report(dram);
        let s = Signature::from_report(slow);
        let c = d.cycles;
        MeasuredComponents {
            drd: (s.s_llc - d.s_llc) / c,
            cache: (s.s_cache - d.s_cache) / c,
            store: (s.s_sb - d.s_sb) / c,
            total: slow.cycles / dram.cycles - 1.0,
        }
    }

    /// Sum of the three attributed components (Figure 2's additive
    /// decomposition; approximately equals [`total`](Self::total)).
    pub fn component_sum(&self) -> f64 {
        self.drd + self.cache + self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_pmu::Event;

    fn counters() -> CounterSet {
        let mut c = CounterSet::new();
        c.set(Event::Cycles, 10_000);
        c.set(Event::StallsL1dMiss, 5_000);
        c.set(Event::StallsL2Miss, 4_000);
        c.set(Event::StallsL3Miss, 3_000);
        c.set(Event::BoundOnStores, 500);
        c.set(Event::OroDemandRd, 60_000);
        c.set(Event::OrDemandRd, 300);
        c.set(Event::OroCycWDemandRd, 6_000);
        c.set(Event::LfbHit, 100);
        c.set(Event::L1Miss, 400);
        c.set(Event::PfL1dAnyResponse, 200);
        c.set(Event::PfL1dL3Hit, 50);
        c.set(Event::LlcLookupPfRd, 80);
        c.set(Event::LlcLookupAll, 160);
        c.set(Event::TorInsIaPref, 60);
        c.set(Event::TorInsIaHitPref, 20);
        c
    }

    #[test]
    fn skx_and_spr_cache_terms_differ() {
        let c = counters();
        let skx = Signature::from_counters(&c, CounterFlavor::Skx);
        let spr = Signature::from_counters(&c, CounterFlavor::SprEmr);
        assert_eq!(skx.s_cache, 1_000.0); // P1 - P2
        assert_eq!(spr.s_cache, 1_000.0); // P2 - P3 (coincidentally equal here)
        assert_eq!(skx.s_llc, spr.s_llc);
        // R_Mem mappings differ.
        assert!((skx.r_mem - 0.75).abs() < 1e-12); // (200-50)/200
        assert!((spr.r_mem - 0.5 * 0.75).abs() < 1e-12); // (80/160)*(60/80)
    }

    #[test]
    fn latency_and_mlp_from_occupancy_counters() {
        let sig = Signature::from_counters(&counters(), CounterFlavor::SprEmr);
        assert!((sig.latency - 200.0).abs() < 1e-12);
        assert!((sig.mlp - 10.0).abs() < 1e-12);
        assert!((sig.latency_tolerance() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn stall_fractions_normalise_by_cycles() {
        let sig = Signature::from_counters(&counters(), CounterFlavor::SprEmr);
        assert!((sig.llc_stall_fraction() - 0.3).abs() < 1e-12);
        assert!((sig.cache_stall_fraction() - 0.1).abs() < 1e-12);
        assert!((sig.store_stall_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_produce_finite_signature() {
        let sig = Signature::from_counters(&CounterSet::new(), CounterFlavor::Skx);
        assert_eq!(sig.latency, 0.0);
        assert_eq!(sig.mlp, 0.0);
        assert_eq!(sig.latency_tolerance(), 0.0);
        assert_eq!(sig.r_lfb_hit, 0.0);
        assert!(sig.llc_stall_fraction().is_finite());
    }

    #[test]
    fn json_roundtrips_exactly() {
        let sig = Signature::from_counters(&counters(), CounterFlavor::SprEmr);
        let rendered = sig.to_json().render();
        let mut reader = Reader::new(&rendered);
        assert_eq!(Signature::read_json(&mut reader).expect("valid json"), Ok(sig));
        reader.finish().expect("nothing trails");
    }

    #[test]
    fn from_json_rejects_missing_unknown_and_non_numeric_fields() {
        let read = |text: &str| {
            let mut reader = Reader::new(text);
            let sig = Signature::read_json(&mut reader).expect("well-formed json");
            reader.finish().expect("nothing trails");
            sig
        };
        let sig = Signature::from_counters(&counters(), CounterFlavor::SprEmr);
        let mut missing = sig.to_json();
        missing.remove("mlp");
        assert!(read(&missing.render()).unwrap_err().contains("'mlp'"));
        let unknown = sig.to_json().render().replacen("\"cycles\"", "\"cycels\"", 1);
        assert!(read(&unknown).unwrap_err().contains("cycels"));
        let non_numeric = sig.to_json().render().replacen("10000", "\"x\"", 1);
        assert!(read(&non_numeric).unwrap_err().contains("must be a number"));
        assert!(read("[]").is_err());
    }

    #[test]
    fn check_names_the_label_and_field() {
        let mut sig = Signature::from_counters(&counters(), CounterFlavor::SprEmr);
        assert!(sig.check("w").is_ok());
        sig.latency = f64::NAN;
        let error = sig.check("req-7").unwrap_err();
        let text = error.to_string();
        assert!(text.contains("req-7"), "{text}");
        assert!(text.contains("latency"), "{text}");
        for cycles in [0.0, 0.5, -3.0] {
            let sig = Signature {
                cycles,
                ..Signature::from_counters(&counters(), CounterFlavor::SprEmr)
            };
            assert_eq!(
                sig.check("req-8"),
                Err(ModelError::CyclesBelowOne { workload: "req-8".into(), value: cycles })
            );
        }
    }

    #[test]
    fn negative_cache_stall_clamps_to_zero() {
        let mut c = counters();
        c.set(Event::StallsL2Miss, 2_000); // below P3
        let sig = Signature::from_counters(&c, CounterFlavor::SprEmr);
        assert_eq!(sig.s_cache, 0.0);
    }
}
