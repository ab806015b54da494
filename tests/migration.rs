//! Integration tests for the migration invariant across every reference
//! workload: interrupt anywhere (simulating an unplug), resume on
//! "another phone", and the final result must equal an uninterrupted run.

use cwc::device::executor::CHUNK_BYTES;
use cwc::device::{ExecutionOutcome, Executor};
use cwc::tasks::{inputs, standard_registry};
use cwc::types::KiloBytes;

fn straight(program: &str, input: &[u8]) -> Vec<u8> {
    let reg = standard_registry();
    let p = reg.load(program).unwrap();
    match Executor.run(p.as_ref(), input, None).unwrap() {
        ExecutionOutcome::Completed { result, .. } => result,
        other => panic!("unexpected {other:?}"),
    }
}

fn interrupted_then_resumed(program: &str, input: &[u8], cut_kb: u64) -> Vec<u8> {
    let reg = standard_registry();
    let p = reg.load(program).unwrap();
    let (ck, done) = match Executor
        .run(p.as_ref(), input, Some(KiloBytes(cut_kb)))
        .unwrap()
    {
        ExecutionOutcome::Interrupted {
            checkpoint,
            processed,
        } => (checkpoint, processed),
        ExecutionOutcome::Completed { result, .. } => return result, // input shorter than cut
    };
    let rest = &input[done.0 as usize * CHUNK_BYTES..];
    match Executor
        .run_guarded(p.as_ref(), rest, Some(&ck), |_| false)
        .unwrap()
    {
        ExecutionOutcome::Completed { result, .. } => result,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn primecount_migration_is_lossless_at_every_cut() {
    let input = inputs::number_file(32, 1);
    let reference = straight("primecount", &input);
    for cut in [1u64, 7, 15, 16, 31] {
        assert_eq!(
            interrupted_then_resumed("primecount", &input, cut),
            reference,
            "cut at {cut} KB"
        );
    }
}

#[test]
fn wordcount_migration_is_lossless() {
    let input = inputs::text_file(32, 2, "lowes");
    let reference = straight("wordcount", &input);
    for cut in [1u64, 13, 31] {
        assert_eq!(
            interrupted_then_resumed("wordcount", &input, cut),
            reference,
            "cut at {cut} KB"
        );
    }
}

#[test]
fn photoblur_migration_is_bit_identical() {
    let input = inputs::image_file(256, 192, 3);
    let reference = straight("photoblur", &input);
    for cut in [1u64, 24, 47] {
        assert_eq!(
            interrupted_then_resumed("photoblur", &input, cut),
            reference,
            "cut at {cut} KB"
        );
    }
}

#[test]
fn largestint_and_logscan_migration() {
    let numbers = inputs::number_file(16, 4);
    assert_eq!(
        interrupted_then_resumed("largestint", &numbers, 9),
        straight("largestint", &numbers)
    );
    let log = inputs::log_file(16, 5);
    assert_eq!(
        interrupted_then_resumed("logscan", &log, 9),
        straight("logscan", &log)
    );
}

#[test]
fn render_migration_is_bit_identical() {
    let scene = inputs::scene_file(200, 150, 20, 6);
    let reference = straight("render", &scene);
    assert_eq!(interrupted_then_resumed("render", &scene, 0), reference);
}

#[test]
fn chained_migrations_across_three_phones() {
    // Phone A dies at 5 KB, phone B at 20 KB, phone C finishes — the
    // Fig. 12c story at the executor level.
    let reg = standard_registry();
    let p = reg.load("primecount").unwrap();
    let input = inputs::number_file(40, 7);
    let reference = straight("primecount", &input);

    let (ck1, d1) = match Executor
        .run(p.as_ref(), &input, Some(KiloBytes(5)))
        .unwrap()
    {
        ExecutionOutcome::Interrupted {
            checkpoint,
            processed,
        } => (checkpoint, processed),
        other => panic!("unexpected {other:?}"),
    };
    let rest = &input[d1.0 as usize * CHUNK_BYTES..];
    let (ck2, d2) = match Executor
        .run_guarded(p.as_ref(), rest, Some(&ck1), |done| {
            d1 + done >= KiloBytes(20)
        })
        .unwrap()
    {
        ExecutionOutcome::Interrupted {
            checkpoint,
            processed,
        } => (checkpoint, d1 + processed),
        other => panic!("unexpected {other:?}"),
    };
    let rest = &input[d2.0 as usize * CHUNK_BYTES..];
    match Executor
        .run_guarded(p.as_ref(), rest, Some(&ck2), |_| false)
        .unwrap()
    {
        ExecutionOutcome::Completed { result, .. } => assert_eq!(result, reference),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn partition_plus_aggregate_equals_whole_for_sums() {
    // Server-side logical aggregation (§4): split, process each part
    // alone, aggregate. A record straddling the cut is the known gap: the
    // straddled tail carries a record across chunks *within* a part, not
    // across parts, so each part parses its half of that record alone.
    // ROADMAP item 1 closes the gap; until then the answer may fall short
    // by that one record.
    let reg = standard_registry();
    let p = reg.load("largestint").unwrap();
    let input = inputs::number_file(24, 8);
    let whole = straight("largestint", &input);

    let cut = 12 * 1024;
    let parts: Vec<Vec<u8>> = [&input[..cut], &input[cut..]]
        .iter()
        .map(
            |slice| match Executor.run(p.as_ref(), slice, None).unwrap() {
                ExecutionOutcome::Completed { result, .. } => result,
                other => panic!("unexpected {other:?}"),
            },
        )
        .collect();
    let aggregated = p.aggregate(&parts).unwrap();
    // Max over parts can only miss a value straddling the cut; the file
    // generator keeps numbers short, so allow equality or a near miss.
    let whole_v = u64::from_be_bytes(whole.as_slice().try_into().unwrap());
    let agg_v = u64::from_be_bytes(aggregated.as_slice().try_into().unwrap());
    assert!(agg_v <= whole_v);
    assert!(whole_v - agg_v <= whole_v / 10, "{agg_v} vs {whole_v}");
}
