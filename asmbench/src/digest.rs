//! Output digests: a hash of each cycle-tier run's simulated outputs,
//! compared against the digests recorded with the benchmark.
//!
//! A digest covers the per-quantum records (estimates, measured
//! slowdowns, shared CARs, partitions) and the whole-run slowdowns, every
//! float by its bit pattern. It leaves out executed cycles and every
//! host-time field, so a change that only makes the simulator faster
//! (skip mode, say) keeps the same digests.

use std::collections::BTreeMap;
use std::hash::Hasher as _;
use std::path::Path;

use asm_core::RunResult;
use asm_simcore::hash::DetHasher;
use asm_telemetry::JsonValue;

/// The recorded digests, committed beside this program.
pub const FILE: &str = "digests.json";

fn write_f64s(h: &mut DetHasher, xs: &[f64]) {
    h.write_usize(xs.len());
    for x in xs {
        h.write_u64(x.to_bits());
    }
}

/// Digest of one run's simulated outputs.
#[must_use]
pub fn of_run(r: &RunResult) -> u64 {
    let mut h = DetHasher::default();
    h.write_usize(r.app_names.len());
    for n in &r.app_names {
        h.write(n.as_bytes());
        h.write_u8(0);
    }
    h.write_usize(r.quanta.len());
    for q in &r.quanta {
        h.write_usize(q.estimates.len());
        for (name, est) in &q.estimates {
            h.write(name.as_bytes());
            h.write_u8(0);
            write_f64s(&mut h, est);
        }
        write_f64s(&mut h, &q.actual);
        write_f64s(&mut h, &q.car_shared);
        match &q.partition {
            Some(ways) => {
                h.write_u8(1);
                h.write_usize(ways.len());
                for &w in ways {
                    h.write_usize(w);
                }
            }
            None => h.write_u8(0),
        }
    }
    write_f64s(&mut h, &r.whole_run_slowdowns);
    h.finish()
}

/// Digest of one fast-tier member's per-app slowdowns.
#[must_use]
pub fn of_slowdowns(slowdowns: &[f64]) -> u64 {
    let mut h = DetHasher::default();
    write_f64s(&mut h, slowdowns);
    h.finish()
}

/// The key a (scale, workload, seed) triple is recorded under.
#[must_use]
pub fn key(scale: &str, workload: &str, seed: u64) -> String {
    format!("{scale}/{workload}/{seed}")
}

/// Recorded per-member digests, by [`key`].
#[derive(Debug, Default)]
pub struct Recorded(BTreeMap<String, Vec<u64>>);

impl Recorded {
    /// Loads the file; a missing file is an empty record, a malformed one
    /// an error.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let doc =
            asm_telemetry::json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let JsonValue::Obj(entries) = doc.get("digests").ok_or("missing \"digests\"")? else {
            return Err("\"digests\" is not an object".into());
        };
        let mut map = BTreeMap::new();
        for (k, v) in entries {
            let list = v
                .as_arr()
                .ok_or_else(|| format!("{k}: not an array"))?
                .iter()
                .map(|d| {
                    d.as_str()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .ok_or_else(|| format!("{k}: bad digest"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            map.insert(k.clone(), list);
        }
        Ok(Recorded(map))
    }

    /// The recorded member digests for `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&[u64]> {
        self.0.get(key).map(Vec::as_slice)
    }

    /// Records (or replaces) `key`.
    pub fn set(&mut self, key: String, digests: Vec<u64>) {
        self.0.insert(key, digests);
    }

    /// Writes the file back, one key per line.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\n  \"about\": \"Per-member output digests by scale/workload/seed: the cycle tier under the bare key, the fast tier under key/fast. Regenerate with asmbench --record.\",\n  \"digests\": {\n");
        let n = self.0.len();
        for (i, (k, v)) in self.0.iter().enumerate() {
            let list: Vec<String> = v.iter().map(|d| format!("\"{d:016x}\"")).collect();
            let comma = if i + 1 < n { "," } else { "" };
            out.push_str(&format!("    \"{k}\": [{}]{comma}\n", list.join(", ")));
        }
        out.push_str("  }\n}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_core::QuantumResult;

    fn result(x: f64) -> RunResult {
        RunResult {
            app_names: vec!["a".into(), "b".into()],
            quanta: vec![QuantumResult {
                estimates: vec![("ASM".into(), vec![1.5, x])],
                actual: vec![1.25, 2.0],
                car_shared: vec![0.01, 0.02],
                partition: Some(vec![8, 8]),
            }],
            whole_run_slowdowns: vec![1.3, 1.9],
            alone_latency_hist: None,
            estimator_latency_hists: Vec::new(),
            telemetry: None,
            attribution: None,
        }
    }

    #[test]
    fn digest_sees_every_bit_of_an_estimate() {
        let a = of_run(&result(2.0));
        assert_eq!(a, of_run(&result(2.0)));
        assert_ne!(a, of_run(&result(f64::from_bits(2.0f64.to_bits() + 1))));
    }

    #[test]
    fn record_round_trips_through_the_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("digest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FILE);
        let mut r = Recorded::default();
        r.set(key("full", "mcf_mix", 1), vec![1, u64::MAX]);
        r.save(&path).unwrap();
        let back = Recorded::load(&path).unwrap();
        assert_eq!(back.get("full/mcf_mix/1"), Some(&[1, u64::MAX][..]));
        assert!(Recorded::load(&dir.join("missing.json"))
            .unwrap()
            .get("x")
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
