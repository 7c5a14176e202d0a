//! Versioned on-disk store for complete [`PreprocessOutput`]s: the one
//! plan serialization format.
//!
//! Beyond the `(b, l)` plan, the statistics trio, the budget
//! distribution and the diagnostics all ride along so a restarted
//! daemon warm-starts with *exactly* the state the original
//! `preprocess` run produced. This module serializes the full output
//! through the hand-rolled bit-exact JSON layer
//! ([`disq_trace::json`]) under a version-stamped envelope keyed by
//! `(domain, attribute, seed)`.
//!
//! **Byte-identity contract**: `output_to_json ∘ output_from_json ∘
//! output_to_json` is the identity on strings. Finite floats use the
//! shortest round-trip decimal ([`disq_trace::json::write_f64`], which
//! keeps `-0.0` distinct); non-finite floats — the trio holds `NaN` for
//! never-measured entries — are encoded as `"bits:<16 hex digits>"`
//! strings so even NaN payloads survive (the JSON parser rejects bare
//! non-finite literals by design).

use crate::{
    DisqError, EvaluationPlan, PlannedAttribute, PreprocessOutput, PreprocessStats,
    TargetRegression,
};
use disq_crowd::Money;
use disq_domain::{AttributeId, AttributeKind};
use disq_stats::StatsTrio;
use disq_trace::json::{self, Json};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Format version stamped into every stored plan; readers reject
/// anything else.
pub const PLAN_STORE_VERSION: u64 = 1;

/// Environment variable naming the plan-store directory. Unset means no
/// on-disk store (plans live only in the in-memory cache).
pub const PLAN_DIR_ENV: &str = "DISQ_PLAN_DIR";

/// Identity of a stored plan: which domain/attribute it answers and the
/// preprocessing seed it was computed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanMeta {
    /// Domain name (`DomainSpec::name`).
    pub domain: String,
    /// Query attribute label the plan was preprocessed for.
    pub attribute: String,
    /// Seed of the preprocessing run (crowd + algorithm).
    pub seed: u64,
}

fn write_f64_field(out: &mut String, v: f64) {
    if v.is_finite() {
        json::write_f64(out, v);
    } else {
        let _ = write!(out, "\"bits:{:016x}\"", v.to_bits());
    }
}

fn write_f64_slice(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64_field(out, x);
    }
    out.push(']');
}

fn write_str_slice(out: &mut String, xs: &[String]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, x);
    }
    out.push(']');
}

/// Serializes `output` plus its identity into the versioned envelope.
pub fn output_to_json(output: &PreprocessOutput, meta: &PlanMeta) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(s, "{{\"disq_plan_version\":{PLAN_STORE_VERSION},");
    s.push_str("\"domain\":");
    json::write_str(&mut s, &meta.domain);
    s.push_str(",\"attribute\":");
    json::write_str(&mut s, &meta.attribute);
    let _ = write!(s, ",\"seed\":{},", meta.seed);

    s.push_str("\"output\":{\"plan\":{\"attributes\":[");
    for (i, p) in output.plan.attributes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"attr\":{},\"label\":", p.attr.0);
        json::write_str(&mut s, &p.label);
        let kind = match p.kind {
            AttributeKind::Numeric => "numeric",
            AttributeKind::Boolean => "boolean",
        };
        let _ = write!(s, ",\"kind\":\"{kind}\",\"questions\":{}}}", p.questions);
    }
    s.push_str("],\"regressions\":[");
    for (i, r) in output.plan.regressions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"target\":{},\"label\":", r.target.0);
        json::write_str(&mut s, &r.label);
        s.push_str(",\"intercept\":");
        write_f64_field(&mut s, r.intercept);
        s.push_str(",\"coefficients\":");
        write_f64_slice(&mut s, &r.coefficients);
        s.push_str(",\"training_mse\":");
        write_f64_field(&mut s, r.training_mse);
        s.push('}');
    }
    s.push_str("]},\"trio\":{\"s_o\":[");
    for (i, row) in output.trio.s_o_rows().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_f64_slice(&mut s, row);
    }
    s.push_str("],\"s_a\":[");
    for (i, row) in output.trio.s_a_rows().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_f64_slice(&mut s, row);
    }
    s.push_str("],\"s_c\":");
    write_f64_slice(&mut s, output.trio.s_c_values());
    s.push_str(",\"target_var\":");
    write_f64_slice(&mut s, output.trio.target_variances());
    s.push_str("},\"pool_labels\":");
    write_str_slice(&mut s, &output.pool_labels);
    s.push_str(",\"budget\":[");
    for (i, b) in output.budget.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{b}");
    }
    s.push_str("],\"weights\":");
    write_f64_slice(&mut s, &output.weights);
    let st = &output.stats;
    let _ = write!(
        s,
        ",\"stats\":{{\"n1_used\":{},\"dismantle_questions\":{},\"discovered\":",
        st.n1_used, st.dismantle_questions
    );
    write_str_slice(&mut s, &st.discovered);
    let _ = write!(
        s,
        ",\"rejected\":{},\"junk\":{},\"duplicates\":{},\"spent_millicents\":{},\"fell_back\":{}}}}}}}",
        st.rejected,
        st.junk,
        st.duplicates,
        st.spent.millicents(),
        st.fell_back
    );
    s
}

fn field<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, DisqError> {
    j.get(key)
        .ok_or_else(|| DisqError::Config(format!("plan store: missing '{key}' in {ctx}")))
}

fn as_f64_exact(j: &Json, ctx: &str) -> Result<f64, DisqError> {
    match j {
        Json::Int(_) | Json::Num(_) => Ok(j.as_f64().unwrap_or(f64::NAN)),
        Json::Str(s) => {
            let hex = s.strip_prefix("bits:").ok_or_else(|| {
                DisqError::Config(format!("plan store: bad float '{s}' in {ctx}"))
            })?;
            u64::from_str_radix(hex, 16)
                .map(f64::from_bits)
                .map_err(|_| {
                    DisqError::Config(format!("plan store: bad float bits '{s}' in {ctx}"))
                })
        }
        _ => Err(DisqError::Config(format!(
            "plan store: expected a float in {ctx}"
        ))),
    }
}

fn as_u64(j: &Json, ctx: &str) -> Result<u64, DisqError> {
    j.as_u64()
        .ok_or_else(|| DisqError::Config(format!("plan store: expected an integer in {ctx}")))
}

fn as_str(j: &Json, ctx: &str) -> Result<String, DisqError> {
    j.as_str()
        .map(str::to_string)
        .ok_or_else(|| DisqError::Config(format!("plan store: expected a string in {ctx}")))
}

fn as_arr<'a>(j: &'a Json, ctx: &str) -> Result<&'a [Json], DisqError> {
    j.as_arr()
        .ok_or_else(|| DisqError::Config(format!("plan store: expected an array in {ctx}")))
}

fn f64_vec(j: &Json, ctx: &str) -> Result<Vec<f64>, DisqError> {
    as_arr(j, ctx)?
        .iter()
        .map(|x| as_f64_exact(x, ctx))
        .collect()
}

fn str_vec(j: &Json, ctx: &str) -> Result<Vec<String>, DisqError> {
    as_arr(j, ctx)?.iter().map(|x| as_str(x, ctx)).collect()
}

/// Parses an envelope produced by [`output_to_json`], rejecting version
/// mismatches and shape errors.
pub fn output_from_json(text: &str) -> Result<(PreprocessOutput, PlanMeta), DisqError> {
    let root = json::parse(text).map_err(|e| DisqError::Config(format!("plan store: {e}")))?;
    let version = as_u64(field(&root, "disq_plan_version", "envelope")?, "version")?;
    if version != PLAN_STORE_VERSION {
        return Err(DisqError::Config(format!(
            "plan store: unsupported version {version} (expected {PLAN_STORE_VERSION})"
        )));
    }
    let meta = PlanMeta {
        domain: as_str(field(&root, "domain", "envelope")?, "domain")?,
        attribute: as_str(field(&root, "attribute", "envelope")?, "attribute")?,
        seed: as_u64(field(&root, "seed", "envelope")?, "seed")?,
    };
    let out = field(&root, "output", "envelope")?;

    let plan_j = field(out, "plan", "output")?;
    let mut attributes = Vec::new();
    for a in as_arr(field(plan_j, "attributes", "plan")?, "plan.attributes")? {
        let kind = match as_str(field(a, "kind", "attribute")?, "kind")?.as_str() {
            "numeric" => AttributeKind::Numeric,
            "boolean" => AttributeKind::Boolean,
            other => {
                return Err(DisqError::Config(format!(
                    "plan store: unknown attribute kind '{other}'"
                )))
            }
        };
        attributes.push(PlannedAttribute {
            attr: AttributeId(as_u64(field(a, "attr", "attribute")?, "attr")? as usize),
            label: as_str(field(a, "label", "attribute")?, "label")?,
            kind,
            questions: as_u64(field(a, "questions", "attribute")?, "questions")? as u32,
        });
    }
    let mut regressions = Vec::new();
    for r in as_arr(field(plan_j, "regressions", "plan")?, "plan.regressions")? {
        regressions.push(TargetRegression {
            target: AttributeId(as_u64(field(r, "target", "regression")?, "target")? as usize),
            label: as_str(field(r, "label", "regression")?, "label")?,
            intercept: as_f64_exact(field(r, "intercept", "regression")?, "intercept")?,
            coefficients: f64_vec(field(r, "coefficients", "regression")?, "coefficients")?,
            training_mse: as_f64_exact(field(r, "training_mse", "regression")?, "training_mse")?,
        });
    }

    let trio_j = field(out, "trio", "output")?;
    let rows = |key: &str| -> Result<Vec<Vec<f64>>, DisqError> {
        as_arr(field(trio_j, key, "trio")?, key)?
            .iter()
            .map(|row| f64_vec(row, key))
            .collect()
    };
    let trio = StatsTrio::from_parts(
        rows("s_o")?,
        rows("s_a")?,
        f64_vec(field(trio_j, "s_c", "trio")?, "s_c")?,
        f64_vec(field(trio_j, "target_var", "trio")?, "target_var")?,
    )?;

    let stats_j = field(out, "stats", "output")?;
    let stats = PreprocessStats {
        n1_used: as_u64(field(stats_j, "n1_used", "stats")?, "n1_used")? as usize,
        dismantle_questions: as_u64(
            field(stats_j, "dismantle_questions", "stats")?,
            "dismantle_questions",
        )? as u32,
        discovered: str_vec(field(stats_j, "discovered", "stats")?, "discovered")?,
        rejected: as_u64(field(stats_j, "rejected", "stats")?, "rejected")? as u32,
        junk: as_u64(field(stats_j, "junk", "stats")?, "junk")? as u32,
        duplicates: as_u64(field(stats_j, "duplicates", "stats")?, "duplicates")? as u32,
        spent: Money::from_millicents(
            field(stats_j, "spent_millicents", "stats")?
                .as_i64()
                .ok_or_else(|| {
                    DisqError::Config("plan store: expected an integer in spent_millicents".into())
                })?,
        ),
        fell_back: field(stats_j, "fell_back", "stats")?
            .as_bool()
            .ok_or_else(|| DisqError::Config("plan store: expected a bool in fell_back".into()))?,
    };

    let budget = as_arr(field(out, "budget", "output")?, "budget")?
        .iter()
        .map(|b| as_u64(b, "budget").map(|v| v as u32))
        .collect::<Result<Vec<_>, _>>()?;

    let output = PreprocessOutput {
        plan: EvaluationPlan {
            attributes,
            regressions,
        },
        trio,
        pool_labels: str_vec(field(out, "pool_labels", "output")?, "pool_labels")?,
        budget,
        weights: f64_vec(field(out, "weights", "output")?, "weights")?,
        stats,
    };
    Ok((output, meta))
}

/// Replaces every byte that could upset a filesystem with `_` so plan
/// keys map to safe file names.
fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Directory of stored plans, one JSON file per `(domain, attribute,
/// seed)` key.
#[derive(Debug, Clone)]
pub struct PlanStore {
    dir: PathBuf,
}

impl PlanStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PlanStore { dir: dir.into() }
    }

    /// The store named by [`PLAN_DIR_ENV`], or `None` when unset/empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(PLAN_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => Some(PlanStore::new(dir.trim())),
            _ => None,
        }
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of the plan for this key.
    pub fn path_for(&self, domain: &str, attribute: &str, seed: u64) -> PathBuf {
        self.dir.join(format!(
            "{}__{}__{seed}.plan.json",
            sanitize(domain),
            sanitize(attribute)
        ))
    }

    /// Persists `output` under its meta key; returns the file written.
    pub fn save(&self, output: &PreprocessOutput, meta: &PlanMeta) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(&meta.domain, &meta.attribute, meta.seed);
        std::fs::write(&path, output_to_json(output, meta))?;
        Ok(path)
    }

    /// Loads the plan stored under the key, if any. A missing file is
    /// `Ok(None)`; a present-but-unreadable file (corrupt JSON, version
    /// or identity mismatch) is an error — silent recompute would hide
    /// store corruption.
    pub fn load(
        &self,
        domain: &str,
        attribute: &str,
        seed: u64,
    ) -> Result<Option<PreprocessOutput>, DisqError> {
        let path = self.path_for(domain, attribute, seed);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(DisqError::Config(format!(
                    "plan store: cannot read {}: {e}",
                    path.display()
                )))
            }
        };
        let (output, meta) = output_from_json(&text)?;
        let expect = PlanMeta {
            domain: domain.to_string(),
            attribute: attribute.to_string(),
            seed,
        };
        if meta != expect {
            return Err(DisqError::Config(format!(
                "plan store: {} holds plan for {:?}, expected {:?}",
                path.display(),
                meta,
                expect
            )));
        }
        Ok(Some(output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output() -> PreprocessOutput {
        let trio = StatsTrio::from_parts(
            vec![vec![90.0, f64::from_bits(0x7ff8_0000_dead_beef)]],
            vec![vec![0.0, 12.5], vec![12.5, -0.0]],
            vec![90.0, 0.24],
            vec![20.25],
        )
        .unwrap();
        PreprocessOutput {
            plan: EvaluationPlan {
                attributes: vec![
                    PlannedAttribute {
                        attr: AttributeId(0),
                        label: "Bmi".into(),
                        kind: AttributeKind::Numeric,
                        questions: 5,
                    },
                    PlannedAttribute {
                        attr: AttributeId(5),
                        label: "Heavy \"looking\"".into(),
                        kind: AttributeKind::Boolean,
                        questions: 9,
                    },
                ],
                regressions: vec![TargetRegression {
                    target: AttributeId(0),
                    label: "Bmi".into(),
                    intercept: 10.625,
                    coefficients: vec![0.6, -11.9e-3],
                    training_mse: f64::NAN,
                }],
            },
            trio,
            pool_labels: vec!["Bmi".into(), "Heavy \"looking\"".into()],
            budget: vec![5, 9],
            weights: vec![1.0 / 90.0],
            stats: PreprocessStats {
                n1_used: 20,
                dismantle_questions: 12,
                discovered: vec!["Heavy \"looking\"".into()],
                rejected: 2,
                junk: 1,
                duplicates: 3,
                spent: Money::from_cents(27.5),
                fell_back: false,
            },
        }
    }

    fn meta() -> PlanMeta {
        PlanMeta {
            domain: "pictures".into(),
            attribute: "Bmi".into(),
            seed: 42,
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let out = sample_output();
        let text = output_to_json(&out, &meta());
        let (back, m) = output_from_json(&text).unwrap();
        assert_eq!(m, meta());
        assert_eq!(output_to_json(&back, &m), text, "second serialization");
    }

    #[test]
    fn roundtrip_preserves_float_bits() {
        let out = sample_output();
        let (back, _) = output_from_json(&output_to_json(&out, &meta())).unwrap();
        // NaN payload and negative zero survive exactly.
        assert_eq!(back.trio.s_o_rows()[0][1].to_bits(), 0x7ff8_0000_dead_beef);
        assert_eq!(back.trio.s_a_rows()[1][1].to_bits(), (-0.0f64).to_bits());
        assert!(back.plan.regressions[0].training_mse.is_nan());
        assert_eq!(back.plan.attributes, out.plan.attributes);
        assert_eq!(back.stats.spent, out.stats.spent);
        assert_eq!(back.budget, out.budget);
        assert_eq!(back.weights, out.weights);
        assert_eq!(back.pool_labels, out.pool_labels);
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = output_to_json(&sample_output(), &meta());
        let bumped = text.replacen("\"disq_plan_version\":1", "\"disq_plan_version\":2", 1);
        let err = output_from_json(&bumped).unwrap_err();
        assert!(
            matches!(&err, DisqError::Config(m) if m.contains("unsupported version 2")),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(output_from_json("").is_err());
        assert!(output_from_json("{}").is_err());
        assert!(output_from_json("{\"disq_plan_version\":1}").is_err());
        // Trio shape violations surface as errors, not panics.
        let text = output_to_json(&sample_output(), &meta());
        let bad = text.replacen("\"s_c\":[90,0.24]", "\"s_c\":[90]", 1);
        assert!(output_from_json(&bad).is_err());
    }

    #[test]
    fn store_saves_and_loads() {
        let dir = std::env::temp_dir().join(format!("disq-plan-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        let out = sample_output();
        assert!(store.load("pictures", "Bmi", 42).unwrap().is_none());
        store.save(&out, &meta()).unwrap();
        let loaded = store.load("pictures", "Bmi", 42).unwrap().unwrap();
        assert_eq!(loaded.plan.attributes, out.plan.attributes);
        assert_eq!(
            output_to_json(&loaded, &meta()),
            output_to_json(&out, &meta())
        );
        // Other keys are still empty.
        assert!(store.load("pictures", "Bmi", 43).unwrap().is_none());
        assert!(store.load("pictures", "Age", 42).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeds need all 64 bits: a seed read back through an `f64` would
    /// round, and `load` would then miss its own file.
    #[test]
    fn store_round_trips_seeds_above_2_pow_53() {
        let dir = std::env::temp_dir().join(format!("disq-plan-seeds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        let out = sample_output();
        for seed in [u64::MAX, (1 << 53) + 1] {
            let meta = PlanMeta { seed, ..meta() };
            store.save(&out, &meta).unwrap();
            let loaded = store.load("pictures", "Bmi", seed).unwrap().unwrap();
            assert_eq!(output_to_json(&loaded, &meta), output_to_json(&out, &meta));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_corrupt_file() {
        let dir = std::env::temp_dir().join(format!("disq-plan-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(store.path_for("pictures", "Bmi", 1), "not json").unwrap();
        assert!(store.load("pictures", "Bmi", 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_sanitized() {
        let store = PlanStore::new("/tmp/x");
        let p = store.path_for("pictures", "Heavy \"looking\"/..", 7);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(name, "pictures__Heavy__looking______7.plan.json");
        assert!(!name.contains('/') && !name.contains('"'));
    }
}
