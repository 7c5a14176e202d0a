//! Golden hashes of cold plan builds and the online answers they drive.
//!
//! For every domain, two attributes and one seed at population 120, a
//! daemon on an empty plan store computes the attribute's plan, writes
//! it to disk and answers one query. The test hashes the plan-store
//! bytes and the bits of every returned estimate. Any change to the
//! preprocessing question stream (order, count, RNG draws, ledger
//! charges) moves at least one of these hashes.

use disq_core::PlanStore;
use disq_serve::{Engine, PlanSource, ServeConfig};

/// `(domain, attribute, plan-store bytes hash, answer bits hash)`.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, u64, u64); 8] = [
    ("pictures", "Bmi", 0x5cededbc1da8ea7c, 0x786744d62d31f0a3),
    ("pictures", "Heavy", 0x2a5d5bed9e349f24, 0xe6e37a3d4a33b40c),
    ("recipes", "Protein", 0x00e9d30bff5122b6, 0xaa80fb42a7465ff6),
    ("recipes", "Healthy", 0xfe7614f2c9b07a81, 0xd055f108803b06c9),
    ("housing", "Price", 0xaf03130ab5f453c1, 0xab8dafd07098c954),
    ("housing", "River Front", 0xba43070aff3f2e78, 0x86da61b8d6dc3e16),
    ("laptops", "Price", 0xe043f96748415305, 0xe3ecbed0ba6fdc50),
    ("laptops", "Cpu Speed", 0x76c154de4a84d0f6, 0x008ac08f582e81b9),
];

const SEED: u64 = 7;

/// FNV-1a 64: stable across Rust releases, unlike `DefaultHasher`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn cold_plans_and_online_answers_match_the_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("disq-prep-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::new(&dir);
    let mut actual = Vec::new();
    for (domain, attribute, _, _) in GOLDEN {
        let engine = Engine::new(ServeConfig {
            domain: domain.into(),
            population: 120,
            seed: SEED,
            plan_dir: Some(dir.clone()),
            default_objects: 30,
            ..ServeConfig::default()
        })
        .expect("engine");
        let (result, source) = engine.run_query(attribute, None, None).expect("query");
        assert_eq!(
            source,
            PlanSource::Computed,
            "{domain}/{attribute}: cold store"
        );

        let bytes = std::fs::read(store.path_for(domain, attribute, SEED)).expect("plan file");
        let mut plan_hash = FNV_OFFSET;
        fnv1a(&mut plan_hash, &bytes);

        let mut answer_hash = FNV_OFFSET;
        for row in &result.rows {
            fnv1a(&mut answer_hash, &(row.object.0 as u64).to_le_bytes());
            for v in &row.values {
                fnv1a(&mut answer_hash, &v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(
            result.rows.len(),
            30,
            "{domain}/{attribute}: every object returned"
        );
        actual.push((domain, attribute, plan_hash, answer_hash));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let table: String = actual
        .iter()
        .map(|(d, a, p, q)| format!("    (\"{d}\", \"{a}\", {p:#018x}, {q:#018x}),\n"))
        .collect();
    for (want, got) in GOLDEN.iter().zip(&actual) {
        assert_eq!(want, got, "golden hashes moved; this run's table:\n{table}");
    }
}
