//! Registry behaviour at the edges the happy-path suites never reach:
//! deterministic filesystem fault injection ([`palmed_fuzz::fault::FaultyIo`]
//! behind the registry's [`ArtifactIo`](palmed_serve::ArtifactIo) seam), the
//! torn-read accounting of file loads, entries whose file is rewritten,
//! truncated or replaced in place on the real filesystem, and the
//! health-accounting corners — readmitting entries that were never
//! quarantined, health rows after removal, and a file restored while its
//! backoff is still draining.

use palmed_core::ConjunctiveMapping;
use palmed_fuzz::fault::{Fault, FaultyIo};
use palmed_integration_tests::incident::{scratch_file, WatchedArtifact};
use palmed_isa::{InstId, InstructionSet, Microkernel};
use palmed_obs::FieldValue;
use palmed_serve::registry::QUARANTINE_AFTER;
use palmed_serve::{
    ArtifactIo, KernelLoad, ModelArtifact, ModelRegistry, RefreshStatus, RegistryEntry,
};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// Serialises the tests that tear reads: the torn-read retry counter is
/// process-global, so its deltas only mean something while no other test
/// in this binary is tearing reads.
static TORN_LOCK: Mutex<()> = Mutex::new(());

fn artifact(name: &str, usage: f64) -> ModelArtifact {
    let mut mapping = ConjunctiveMapping::with_resources(2);
    mapping.set_usage(InstId(0), vec![0.25, 0.0]);
    mapping.set_usage(InstId(2), vec![usage, 1.0 / 3.0]);
    ModelArtifact::new(name, "integration-test", InstructionSet::paper_example(), mapping)
}

fn faulty_registry() -> (Arc<FaultyIo>, ModelRegistry) {
    let io = Arc::new(FaultyIo::new());
    let registry = ModelRegistry::with_io(Arc::clone(&io) as Arc<dyn ArtifactIo>);
    (io, registry)
}

#[test]
fn readmit_on_unknown_entry_errs_and_leaves_no_phantom_health_row() {
    let registry = ModelRegistry::new();
    assert!(registry.readmit("nope").is_err(), "readmitting an unknown entry must fail");
    assert!(
        registry.health().iter().all(|h| h.name != "nope"),
        "a failed readmit of an unknown name must not mint a health row"
    );
}

#[test]
fn readmit_on_a_memory_only_entry_errs_without_touching_its_health() {
    let registry = ModelRegistry::new();
    let bytes = artifact("memory-only", 0.5).render_v2();
    registry.swap_bytes("memory-only", bytes).unwrap();

    // No source file is watched, so there is nothing to readmit from.
    assert!(registry.readmit("memory-only").is_err());
    let health = registry.health().into_iter().find(|h| h.name == "memory-only").unwrap();
    assert_eq!(
        health.consecutive_failures, 0,
        "the failed readmit must not charge the entry with a reload failure"
    );
    assert!(!health.quarantined);
    assert!(registry.get("memory-only").is_some(), "the entry itself is untouched");
}

#[test]
fn removing_an_entry_removes_its_health_row() {
    let watched = WatchedArtifact::save("remove-health", "palmed-it-remove-health.palmed2", 0.5);
    let registry = ModelRegistry::new();
    registry.load_file(&watched.path).unwrap();
    assert!(registry.health().iter().any(|h| h.name == watched.name));

    registry.remove(&watched.name).unwrap();
    assert!(
        registry.health().iter().all(|h| h.name != watched.name),
        "health reports only entries that are actually registered"
    );
    assert!(registry.refresh().accounted() == 0, "nothing is left to poll");
}

#[test]
fn a_file_restored_mid_backoff_recovers_and_resets_the_failure_counter() {
    let watched = WatchedArtifact::save("mid-backoff", "palmed-it-mid-backoff.palmed2", 0.5);
    let registry = ModelRegistry::new();
    let first = registry.load_file(&watched.path).unwrap();

    watched.corrupt();
    let outcome = registry.refresh();
    assert_eq!(outcome.errors.len(), 1, "the corrupt rewrite fails exactly one reload");
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert_eq!(health.consecutive_failures, 1);
    assert_eq!(health.backoff_remaining, 1, "first failure schedules a one-poll backoff");

    // Restore the good bytes while the backoff is still draining.  The
    // draining poll must not touch the file, and the next attempt must
    // recover and zero the failure counter.
    watched.restore();
    let outcome = registry.refresh();
    assert_eq!(outcome.backed_off, vec![watched.name.clone()], "backoff drains before retrying");
    let outcome = registry.refresh();
    assert_eq!(outcome.reloaded, vec![watched.name.clone()], "the restored file reloads");
    let entry = registry.get(&watched.name).unwrap();
    assert_eq!(entry.fingerprint(), watched.recorded_fp);
    assert!(entry.generation() > first.generation());
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert_eq!(health.consecutive_failures, 0, "recovery resets the failure counter");
    assert_eq!(health.backoff_remaining, 0);
    assert_eq!(health.status, RefreshStatus::Reloaded);
}

#[test]
fn torn_reads_are_retried_with_one_event_per_counted_retry() {
    let _torn = TORN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    palmed_obs::set_enabled(true);
    let art = artifact("torn-accounting", 0.5);
    let retries =
        || palmed_obs::snapshot().counter("serve.registry.torn_read_retries").unwrap_or(0);

    // Two ways a read is unstable: a replace still in progress (two torn
    // reads, then the write settles), and both stats failing around an
    // intact read (nothing proves the bytes match what was stat'ed).
    type Script = fn(&FaultyIo, &Path, Vec<u8>);
    let scripts: [(&str, Script); 2] = [
        ("torn write", |io, path, bytes| io.write_torn(path, bytes, 2)),
        ("both stats fail", |io, path, bytes| {
            io.write(path, bytes);
            io.arm(path, Fault::StatError);
            io.arm(path, Fault::StatError);
        }),
    ];
    for (script, fault) in scripts {
        let (io, registry) = faulty_registry();
        let path = Path::new("/sim/torn-heap.palmed2");
        fault(&io, path, art.render_v2());
        let _ = palmed_obs::drain_events();
        let before = retries();
        let entry = registry
            .load_file(path)
            .unwrap_or_else(|e| panic!("{script}: the load recovers: {e}"));
        assert_eq!(entry.fingerprint(), art.fingerprint(), "{script}");
        let counted = retries() - before;
        let path_field = FieldValue::Str(path.display().to_string());
        let attempts = palmed_obs::drain_events()
            .0
            .iter()
            .filter(|e| e.name == "registry.torn_read_retry")
            .filter(|e| e.field("path") == Some(&path_field))
            .filter(|e| e.field("attempt").is_some())
            .count();
        assert!(counted > 0, "{script}: the load retried");
        assert_eq!(attempts as u64, counted, "{script}: one event per counted retry");
    }
}

/// The exact bits `entry` predicts on a few covered and uncovered kernels.
fn predicted_bits(entry: &RegistryEntry) -> Vec<Option<u64>> {
    let kernels = [
        Microkernel::single(InstId(0)),
        Microkernel::single(InstId(2)),
        Microkernel::pair(InstId(2), 3, InstId(0), 1),
        Microkernel::single(InstId(1)),
    ];
    let serving = entry.serving().expect("conjunctive entry");
    serving.batch().predict(&kernels).ipcs.iter().map(|ipc| ipc.map(f64::to_bits)).collect()
}

/// Asserts that `entry` still serves the snapshot it was installed with:
/// the same predicted bits, and a view that still fingerprints as the
/// entry recorded at install.
fn assert_serves_its_snapshot(entry: &RegistryEntry, bits: &[Option<u64>], case: &str) {
    assert_eq!(predicted_bits(entry), bits, "{case}: `{}` predicts as installed", entry.name());
    let serving = entry.serving().expect("conjunctive entry");
    let n = serving.artifact.instructions.len();
    assert_eq!(serving.view().fingerprint(n), entry.fingerprint(), "{case}: view fingerprint");
}

#[test]
fn loaded_entries_keep_serving_their_verified_bytes_when_the_file_changes_in_place() {
    let path = scratch_file("palmed-it-in-place-rewrite.palmed2");
    let name = "in-place";
    let original = artifact(name, 0.5);
    std::fs::write(&path, original.render_v2()).unwrap();
    let registry = ModelRegistry::new();
    let first = registry.load_file(&path).unwrap();
    let first_bits = predicted_bits(&first);
    assert_eq!(first.fingerprint(), original.fingerprint());

    // After each change to the file, every entry installed so far still
    // serves its own snapshot; then a refresh either installs the file's
    // new bytes, verified, or leaves the last good generation serving.
    let mut last_good = Arc::clone(&first);
    let mut last_good_bits = first_bits.clone();
    let mut after_change = |case: &str, polls: usize, expect_reload: Option<&ModelArtifact>| {
        assert_serves_its_snapshot(&first, &first_bits, case);
        assert_serves_its_snapshot(&last_good, &last_good_bits, case);
        let mut reloaded = false;
        for _ in 0..polls {
            let outcome = registry.refresh();
            let current = registry.get(name).expect("the entry never disappears");
            if outcome.reloaded.iter().any(|n| n == name) {
                let fresh = ModelArtifact::parse_bytes(&std::fs::read(&path).unwrap()).unwrap();
                assert_eq!(current.fingerprint(), fresh.fingerprint(), "{case}: verified reload");
                assert_eq!(current.serving().unwrap().bytes(), &fresh.render_v2()[..]);
                last_good_bits = predicted_bits(&current);
                last_good = current;
                reloaded = true;
                break;
            }
            assert!(Arc::ptr_eq(&current, &last_good), "{case}: the last good generation serves");
            assert_serves_its_snapshot(&current, &last_good_bits, case);
        }
        if let Some(expected) = expect_reload {
            assert!(reloaded, "{case}: the new file installs");
            assert_eq!(last_good.fingerprint(), expected.fingerprint(), "{case}");
        }
        assert_serves_its_snapshot(&first, &first_bits, case);
    };

    // A same-length rewrite through an open handle, no truncation: the
    // bytes change under the path while the length stays put.
    let rewrite = artifact(name, 0.75).render_v2();
    assert_eq!(rewrite.len(), original.render_v2().len(), "an in-place rewrite keeps the length");
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all(&rewrite).unwrap();
    drop(file);
    after_change("same-length in-place rewrite", 1, None);

    // Truncation to zero: the reload must fail and the last good serve.
    std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
    let failures_before = registry.health()[0].consecutive_failures;
    after_change("truncation", 1, None);
    assert_eq!(registry.health()[0].consecutive_failures, failures_before + 1);

    // `std::fs::write` of a different model (it truncates first, then
    // writes): once the backoff drains, the new model installs.
    let replacement = ModelArtifact::new(
        name,
        "replaced-by-fs-write",
        InstructionSet::paper_example(),
        artifact(name, 2.0).mapping().clone(),
    );
    std::fs::write(&path, replacement.render_v2()).unwrap();
    after_change("replacement by std::fs::write", QUARANTINE_AFTER as usize, Some(&replacement));
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_and_torn_faults_never_degrade_serving_and_always_recover() {
    let _torn = TORN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (io, registry) = faulty_registry();
    let first = artifact("faulted", 0.5);
    let path = Path::new("/sim/faulted.palmed2");
    io.write(path, first.render_v2());
    let entry = registry.load_file(path).unwrap();
    assert_eq!(entry.fingerprint(), first.fingerprint());

    // A good rewrite behind a transient read fault: the poll fails once,
    // keeps serving the old body, and recovers once the fault drains.
    let second = artifact("faulted", 0.75);
    io.write(path, second.render_v2());
    io.arm(path, Fault::ReadError);
    let outcome = registry.refresh();
    assert_eq!(outcome.errors.len(), 1, "the armed fault fails the first reload attempt");
    assert_eq!(
        registry.get("faulted").unwrap().fingerprint(),
        first.fingerprint(),
        "serving is pinned to the last good body while the fault is live"
    );
    let mut polls = 0;
    loop {
        polls += 1;
        assert!(polls < 16, "the transient fault must drain within bounded polls");
        let outcome = registry.refresh();
        assert!(outcome.quarantined.is_empty(), "one transient fault never quarantines");
        if !outcome.reloaded.is_empty() {
            break;
        }
    }
    assert_eq!(registry.get("faulted").unwrap().fingerprint(), second.fingerprint());

    // A torn replace: while the new body is only half-visible the stable
    // read must refuse to promote it, and once the writes settle the full
    // body installs bit-identically.
    let third = artifact("faulted", 1.0);
    io.write_torn(path, third.render_v2(), 2);
    let mut polls = 0;
    loop {
        polls += 1;
        assert!(polls < 32, "the torn replace must settle within bounded polls");
        let outcome = registry.refresh();
        assert!(outcome.quarantined.is_empty(), "a settling torn write never quarantines");
        let served = registry.get("faulted").unwrap();
        if !outcome.reloaded.is_empty() {
            assert_eq!(served.fingerprint(), third.fingerprint());
            break;
        }
        assert_eq!(
            served.fingerprint(),
            second.fingerprint(),
            "a half-visible body must never be promoted (poll {polls})"
        );
    }
    assert_eq!(
        registry.get("faulted").unwrap().serving().unwrap().bytes(),
        io.contents(path).unwrap(),
        "the settled body serves bit-identically"
    );
    assert!(io.injected() > 0, "the schedule actually injected faults");

    // Health is clean again after the incidents.
    let health = registry.health().into_iter().find(|h| h.name == "faulted").unwrap();
    assert_eq!(health.consecutive_failures, 0);
    assert!(!health.quarantined);
}
