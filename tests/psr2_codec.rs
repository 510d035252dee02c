//! PSR2 binary-codec integration tests: the compact profile encoding
//! must be a *lossless* stand-in for the JSON (`PSR1`) path on every
//! workload the repo ships, and the store must heal damaged frames and
//! transparently upgrade v1 logs.
//!
//! The contract: persistence format changes cost, never bytes. Every
//! profile that round-trips through `encode_profiled`/`decode_profiled`
//! serializes to exactly the JSON the v1 store would have replayed, so
//! no consumer can tell which frame version served it.

use std::sync::Arc;

use prophet_core::{codec, Prophet};
use store::{crc32, KeyedStore, ProfileStore};
use sweep::{GridSpec, Overrides, PredictorSpec, SweepEngine, WorkloadSpec};
use workloads::{Test1, Test1Params, Test2, Test2Params};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-psr2-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_cal() -> prophet_core::memmodel::MemCalibration {
    prophet_core::memmodel::calibrate(
        prophet_core::machsim::MachineConfig::westmere_scaled(),
        &prophet_core::memmodel::CalibrationOptions {
            thread_counts: vec![2, 8],
            intensity_steps: 4,
            packet_cycles: 100_000,
        },
    )
}

fn light_prophet() -> Prophet {
    Prophet::builder().calibration(quick_cal()).build()
}

/// The paper-size workloads every codec check runs over, by registry
/// name.
const WORKLOADS: [&str; 15] = [
    "md",
    "lu",
    "fft",
    "qsort",
    "pi",
    "mandelbrot",
    "jacobi",
    "ep",
    "ft",
    "mg",
    "cg",
    "is",
    "pipeline",
    "test1:3",
    "test2:3",
];

/// PSR2 encode → decode reproduces a profile whose serde-JSON form is
/// byte-identical to the original's, for every shipped workload — the
/// binary path can never change what a store replay returns.
#[test]
fn psr2_round_trips_byte_identically_across_all_workloads() {
    let prophet = light_prophet();
    for name in WORKLOADS {
        let w = workloads::by_name(name).expect("registry name");
        let profiled = prophet.profile(w.as_ref());
        let mut bin = Vec::new();
        codec::encode_profiled(&profiled, &mut bin);
        let back = codec::decode_profiled(&bin)
            .unwrap_or_else(|e| panic!("{name}: PSR2 decode failed: {e}"));
        let json_orig = serde_json::to_string(&profiled).unwrap();
        let json_back = serde_json::to_string(&back).unwrap();
        assert_eq!(
            json_orig, json_back,
            "{name}: decoded PSR2 profile serializes differently from the original"
        );
        assert!(
            bin.len() < json_orig.len(),
            "{name}: binary ({}) not smaller than JSON ({})",
            bin.len(),
            json_orig.len()
        );
    }
}

fn grid() -> GridSpec {
    GridSpec {
        workloads: vec![WorkloadSpec::test1(11), WorkloadSpec::test1(12)],
        threads: vec![2, 4],
        schedules: vec![prophet_core::machsim::Schedule::static_block()],
        paradigms: vec![prophet_core::machsim::Paradigm::OpenMp],
        predictors: vec![PredictorSpec::syn(true)],
        overrides: Overrides::default(),
    }
}

/// An engine whose profile cache reads through / writes behind `dir`.
fn engine_on(dir: &std::path::Path) -> SweepEngine {
    let store = Arc::new(ProfileStore::builder(dir).open().expect("store opens"));
    let prophet = Prophet::builder().calibration(quick_cal()).build();
    let keyed = KeyedStore::new(store, &prophet);
    SweepEngine::new(prophet)
        .with_jobs(1)
        .with_profile_store(Arc::new(keyed))
}

/// The acceptance path for the upgrade: a store directory written
/// entirely in the v1 era (JSON payloads, `profiles.v1.log`) is opened
/// by the v2 store, migrated in place, and replays every profile with
/// zero re-profiles and byte-identical sweep output.
#[test]
fn psr1_store_upgrades_on_open_and_replays_with_zero_reprofiles() {
    // Produce reference profiles (and the cold sweep bytes) in one
    // directory, then rebuild them as a v1-era log in a second one.
    let src_dir = tmpdir("upgrade-src");
    let cold_engine = engine_on(&src_dir);
    let cold = serde_json::to_string_pretty(&cold_engine.run(&grid())).unwrap();
    assert_eq!(cold_engine.cache().stats().profiles(), 2);
    drop(cold_engine);

    let v1_dir = tmpdir("upgrade-dst");
    std::fs::create_dir_all(&v1_dir).unwrap();
    let src = ProfileStore::builder(&src_dir)
        .open()
        .expect("source store reopens");
    let report = store::inspect(&src_dir).expect("source store inspects");
    assert_eq!(report.records.len(), 2);
    let mut v1_log = Vec::new();
    for rec in &report.records {
        let profiled = src.get(&rec.key).unwrap().expect("record present");
        let payload = serde_json::to_string(&profiled).unwrap().into_bytes();
        v1_log.extend_from_slice(b"PSR1");
        v1_log.extend_from_slice(&(rec.key.len() as u32).to_le_bytes());
        v1_log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1_log.extend_from_slice(&crc32(&payload).to_le_bytes());
        v1_log.extend_from_slice(rec.key.as_bytes());
        v1_log.extend_from_slice(&payload);
    }
    std::fs::write(v1_dir.join("profiles.v1.log"), &v1_log).unwrap();

    // Open under v2: transparent upgrade, then a fully warm replay.
    let warm_engine = engine_on(&v1_dir);
    let warm = serde_json::to_string_pretty(&warm_engine.run(&grid())).unwrap();
    let stats = warm_engine.cache().stats();
    assert_eq!(warm, cold, "upgraded store changed the sweep bytes");
    assert_eq!(stats.store_hits, 2, "both migrated records must replay");
    assert_eq!(stats.profiles(), 0, "upgrade must not re-profile");
    assert_eq!(stats.store_writes, 0, "nothing new to write");

    assert!(
        !v1_dir.join("profiles.v1.log").exists(),
        "v1 log renamed aside after migration"
    );
    assert!(v1_dir.join("profiles.v1.log.migrated").exists());
    assert!(v1_dir.join("profiles.v2.log").exists());

    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_dir_all(&v1_dir);
}

/// WAL healing over real profiles: a frame torn mid-append is dropped
/// on reopen and re-written cleanly; a bit-flipped payload is caught by
/// CRC and the damaged tail is trimmed — never a panic, never an error.
#[test]
fn truncated_and_bit_flipped_frames_heal_on_reopen() {
    let prophet = light_prophet();
    let pa = prophet.profile(&Test1::new(Test1Params::random(41)));
    let pb = prophet.profile(&Test2::new(Test2Params::random(42)));

    // Torn final frame: reopen keeps the whole record, drops the torn
    // one, and a re-put of the lost key survives the next reopen.
    let dir = tmpdir("heal-trunc");
    {
        let store = ProfileStore::builder(&dir).open().unwrap();
        store.put("a", &pa).unwrap();
        store.put("b", &pb).unwrap();
    }
    let log = dir.join("profiles.v2.log");
    let len = std::fs::metadata(&log).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(len - 7)
        .unwrap();
    {
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().corrupt_skipped, 1);
        let got = store.get("a").unwrap().expect("whole record survives");
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&pa).unwrap()
        );
        store.put("b", &pb).unwrap();
    }
    let store = ProfileStore::builder(&dir).open().unwrap();
    assert_eq!(store.len(), 2, "healed log carries both records");
    let _ = std::fs::remove_dir_all(&dir);

    // Bit flip inside a payload: CRC catches it on reopen, the damaged
    // tail is trimmed, and the survivor still decodes.
    let dir = tmpdir("heal-flip");
    {
        let store = ProfileStore::builder(&dir).open().unwrap();
        store.put("a", &pa).unwrap();
        store.put("b", &pb).unwrap();
    }
    let log = dir.join("profiles.v2.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x10;
    std::fs::write(&log, &bytes).unwrap();
    let store = ProfileStore::builder(&dir).open().unwrap();
    assert_eq!(store.len(), 1, "flipped record dropped");
    assert_eq!(store.stats().corrupt_skipped, 1);
    assert!(store.get("a").unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
