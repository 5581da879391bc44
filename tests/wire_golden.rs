//! Byte-level golden vectors for everything that crosses a process, disk
//! or artifact boundary: one encoded frame per `Frame` variant, one
//! journal record per `Record` type, the report/job/aggregation blobs and
//! a stolen unit. The hex below was captured from the encoders as they
//! stood before the codecs were folded into `fractal_runtime::wire`; any
//! refactor of that layer must keep every byte.

use fractal::apps::fsm::DomainSupport;
use fractal::graph::builder::graph_from_edges;
use fractal::net::blob::{self, AppSpec};
use fractal::net::frame::{decode_frame, encode_frame, EventKind, Frame, Role};
use fractal::net::journal::{decode_record, encode_record, JOURNAL_FILE};
use fractal::net::{Journal, Record};
use fractal::pattern::CanonicalCode;
use fractal::runtime::steal::{decode_unit, encode_unit, StolenUnit};
use fractal::runtime::{CoreStats, FaultStats, GlobalCoreId, JobReport, PlannerStats};
use std::collections::HashMap;
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            role: Role::Client,
            cores: 8,
        },
        Frame::Assign {
            round: 3,
            recovery: true,
            job: Some(vec![1, 2, 3]),
            seed: Some(vec![0xAA, 0xBB]),
            roots: vec![5, 9, u64::MAX - 1],
        },
        Frame::StealRequest { round: 2 },
        Frame::StealReply {
            round: 2,
            word: 77,
            unit: Some(vec![9, 8, 7, 6]),
        },
        Frame::Ack { round: 1, word: 42 },
        Frame::Nack { round: 1, word: 43 },
        Frame::AggFlush {
            round: 4,
            count: 1234,
            agg: vec![7; 5],
            report: vec![8; 3],
        },
        Frame::Heartbeat {
            round: 4,
            completed: vec![1, 2, 3],
        },
        Frame::Done { round: 5 },
        Frame::Submit {
            tenant: "acme".into(),
            priority: 7,
            snapshot: "gen:mico:200:1".into(),
            app: vec![1, 2, 3, 4],
            token: "acme-42-a9".into(),
        },
        Frame::Status { job: 42 },
        Frame::Cancel { job: u64::MAX },
        Frame::Result {
            job: 9,
            count: 123_456,
            agg: vec![5; 4],
            report: vec![6; 2],
        },
        Frame::JobEvent {
            job: 9,
            kind: EventKind::Progress,
            detail: "round 2 \u{e9}".into(),
            value: 17,
            event_seq: 3,
        },
        Frame::Mux {
            job: 4,
            inner: encode_frame(11, &Frame::Done { round: 1 }),
        },
        Frame::Watch {
            job: 12,
            after_seq: 5,
        },
        Frame::UnitFailed {
            round: 2,
            message: "filter rejects subgraph \u{e9}".into(),
        },
    ]
}

const FRAMES_HEX: &[&str] = &[
    "f2ac010100000064000000050200000008f1b7061162cb4ae0",
    "f2ac0102000000650000002e00000003070000000301020300000002aabb0000000300000000000000050000\
     000000000009fffffffffffffffee10426465cd9ddf3",
    "f2ac01030000006600000004000000025e488b562364ee27",
    "f2ac0104000000670000001500000002000000000000004d010000000409080706f2e60847e22b5e34",
    "f2ac0105000000680000000c00000001000000000000002a46f30a208da87a5c",
    "f2ac0106000000690000000c00000001000000000000002baf26da552dc707e5",
    "f2ac01070000006a0000001c0000000400000000000004d200000005070707070700000003080808b0b082b2\
     f9520370",
    "f2ac01080000006b000000200000000400000003000000000000000100000000000000020000000000000003\
     0d23452ea7279f8e",
    "f2ac01090000006c000000040000000502de6fd948c13f2e",
    "f2ac010a0000006d000000310000000461636d65070000000e67656e3a6d69636f3a3230303a310000000401\
     0203040000000a61636d652d34322d6139f9e0105176f30bb2",
    "f2ac010b0000006e00000008000000000000002a65956ee7930e9a4b",
    "f2ac010c0000006f00000008ffffffffffffffff671da3cead89d427",
    "f2ac010d000000700000001e0000000000000009000000000001e2400000000405050505000000020606b840\
     341162db1997",
    "f2ac010e00000071000000270000000000000009040000000a726f756e64203220c3a9000000000000001100\
     00000000000003f29b212909c73add",
    "f2ac010f0000007200000024000000000000000400000018f2ac01090000000b0000000400000001e8f1aecb\
     38c4a53b6a93baef02f337bb",
    "f2ac01100000007300000010000000000000000c0000000000000005a52909dd355378ec",
    // Tag 17 postdates the fold: captured from the encoder that added it.
    "f2ac01110000007400000022000000020000001a66696c7465722072656a65637473207375626772617068\
     20c3a988c632abcf33672b",
];

fn records() -> Vec<Record> {
    vec![
        Record::JobAdmitted {
            job: 1,
            token: "tok-a".into(),
            tenant: "acme".into(),
            priority: 3,
            submit_seq: 6,
            snapshot: "gen:mico:300:11".into(),
            app: vec![1, 2, 3],
        },
        Record::JobStarted { job: 1 },
        Record::WordSetCommitted {
            job: 1,
            rounds_done: 2,
            count: 42,
            agg: vec![9, 9],
        },
        Record::JobFinished {
            job: 1,
            count: 99,
            agg: vec![4],
            report: vec![5, 6],
        },
        Record::JobCancelled { job: 2 },
        Record::JobFailed {
            job: 3,
            error: "no live workers".into(),
        },
    ]
}

const RECORDS_HEX: &[&str] = &[
    "f24a4e0101010000003c000000000000000100000005746f6b2d610000000461636d65030000000000000006\
     0000000f67656e3a6d69636f3a3330303a3131000000030102035b1b24aa1be17246",
    "f24a4e01010200000008000000000000000143b3f8297fbe36f0",
    "f24a4e0101030000001a000000000000000100000002000000000000002a0000000209093017073cf656a38d",
    "f24a4e0101040000001b00000000000000010000000000000063000000010400000002050678b1a225372986\
     06",
    "f24a4e010105000000080000000000000002136abb8cfdd1dd0c",
    "f24a4e0101060000001b00000000000000030000000f6e6f206c69766520776f726b657273e4227f656984bd\
     d2",
];

/// A report in which every counter is distinct and non-zero, so a
/// swapped, dropped or duplicated field changes the bytes.
fn report() -> JobReport {
    let core = |base: u64| CoreStats {
        busy_ns: base + 1,
        units: base + 2,
        internal_steals: base + 3,
        external_steals: base + 4,
        net_units: base + 5,
        failed_steal_rounds: base + 6,
        bytes_received: base + 7,
        ec: base + 8,
        peak_state_bytes: base + 9,
        steal_ns: base + 10,
        kernel_merge: base + 11,
        kernel_gallop: base + 12,
        kernel_bitset: base + 13,
        kernel_scanned: base + 14,
        arena_peak_bytes: base + 15,
        segments: vec![(0, base)],
    };
    JobReport {
        elapsed: Duration::from_nanos(5_000_017),
        cores: vec![
            (GlobalCoreId { worker: 0, core: 1 }, core(100)),
            (GlobalCoreId { worker: 2, core: 0 }, core(200)),
        ],
        bytes_served: 21,
        steal_requests: 22,
        steal_hits: 23,
        faults: FaultStats {
            faults_injected: 31,
            units_retried: 32,
            units_reexecuted: 33,
            watchdog_trips: 34,
            recovery_ns: 35,
            units_lost: 36,
            tap_drained: 37,
            jobs_admitted: 38,
            jobs_rejected: 39,
            snapshot_evictions: 40,
            journal_replayed: 41,
            resumed_jobs: 42,
            link_faults_injected: 43,
            client_reconnects: 44,
        },
        planner: PlannerStats {
            plans_compiled: 51,
            subpatterns_counted: 52,
            ie_terms: 53,
        },
        trace: None,
        workers: 0,
    }
}

fn motifs_map() -> HashMap<CanonicalCode, u64> {
    [
        (CanonicalCode(vec![3, 1, 2]), 99),
        (CanonicalCode(vec![1]), 7),
        (CanonicalCode(vec![]), u64::MAX),
    ]
    .into_iter()
    .collect()
}

fn fsm_map() -> HashMap<CanonicalCode, DomainSupport> {
    [
        (
            CanonicalCode(vec![2, 0, 1]),
            DomainSupport::from_domains(vec![
                [1u32, 5, 9].into_iter().collect(),
                [2u32].into_iter().collect(),
                Default::default(),
            ]),
        ),
        (
            CanonicalCode(vec![2, 0, 0]),
            DomainSupport::from_domains(vec![[0u32, 1].into_iter().collect()]),
        ),
    ]
    .into_iter()
    .collect()
}

const PLAN_TOTALS: [i128; 5] = [0, -1, u64::MAX as i128 + 17, i128::MAX, i128::MIN];

fn unit() -> StolenUnit {
    StolenUnit {
        prefix: vec![1, u64::MAX, 42],
        word: 7,
    }
}

const JOB_APP: AppSpec = AppSpec::Motifs {
    k: 5,
    use_labels: false,
    decomposed: true,
};

/// `apps! { Variant {fields} => "hex", ... }` defines `APPS`, one
/// (sample, golden) row per `AppSpec` variant. The expansion matches
/// exhaustively on the listed variants, so a variant without a golden
/// does not compile.
macro_rules! apps {
    ($($variant:ident $fields:tt => $hex:literal,)+) => {
        fn _every_app_has_a_golden(app: &AppSpec) {
            match app {
                $(AppSpec::$variant { .. } => {})+
            }
        }
        const APPS: &[(AppSpec, &str)] = &[$((AppSpec::$variant $fields, $hex)),+];
    };
}

apps! {
    Motifs { k: 3, use_labels: true, decomposed: false } => "010000000301",
    Kclist { k: 4 } => "0200000004",
    Fsm { min_support: 12, max_edges: 3 } => "03000000000000000c00000003",
}

const REPORT_HEX: &str = "\
    00000000004c4b51000000000000001500000000000000160000000000000017000000000000001f00000000\
    0000002000000000000000210000000000000022000000000000002300000000000000240000000000000025\
    0000000000000026000000000000002700000000000000280000000000000029000000000000002a00000000\
    0000002b000000000000002c0000000000000033000000000000003400000000000000350000000200000000\
    0000000100000000000000650000000000000066000000000000006700000000000000680000000000000069\
    000000000000006a000000000000006b000000000000006c000000000000006d000000000000006e00000000\
    0000006f00000000000000700000000000000071000000000000007200000000000000730000000200000000\
    00000000000000c900000000000000ca00000000000000cb00000000000000cc00000000000000cd00000000\
    000000ce00000000000000cf00000000000000d000000000000000d100000000000000d200000000000000d3\
    00000000000000d400000000000000d500000000000000d600000000000000d7";
const JOB_HEX: &str = "\
    0100000005020000000300000007000000080000000900000002000000000000000100000004000000010000\
    000200000005";
const MOTIFS_HEX: &str = "\
    0000000300000000ffffffffffffffff00000001000000010000000000000007000000030000000300000001\
    000000020000000000000063";
const FSM_SEEDS_HEX: &str = "\
    0000000200000054000000020000000300000002000000000000000000000001000000020000000000000001\
    0000000300000002000000000000000100000003000000030000000100000005000000090000000100000002\
    000000000000000400000000";
const PLAN_TOTALS_HEX: &str = "\
    0000000500000000000000000000000000000000ffffffffffffffffffffffffffffffff0000000000000001\
    00000000000000107fffffffffffffffffffffffffffffff80000000000000000000000000000000";
const UNIT_HEX: &str =
    "000000030000000000000001ffffffffffffffff000000000000002a0000000000000007bfdb2a59eca9a830";

/// Encoding is byte-identical to the captured vector, and decoding the
/// vector gives the value back.
fn check<T: std::fmt::Debug + PartialEq>(what: &str, value: &T, encoded: &[u8], want_hex: &str) {
    assert_eq!(
        hex(encoded),
        want_hex,
        "{what}: {value:?} encodes differently"
    );
}

#[test]
fn every_frame_variant_is_byte_identical() {
    let frames = frames();
    assert_eq!(frames.len(), FRAMES_HEX.len());
    for (i, (f, want)) in frames.iter().zip(FRAMES_HEX).enumerate() {
        let seq = 100 + i as u32;
        check("frame", f, &encode_frame(seq, f), want);
        assert_eq!(decode_frame(&unhex(want)), Ok((seq, f.clone())));
    }
}

#[test]
fn every_journal_record_is_byte_identical() {
    let records = records();
    assert_eq!(records.len(), RECORDS_HEX.len());
    for (r, want) in records.iter().zip(RECORDS_HEX) {
        check("record", r, &encode_record(r), want);
        let bytes = unhex(want);
        assert_eq!(decode_record(&bytes), Some((r.clone(), bytes.len())));
    }
}

/// A journal file laid down by the old encoder (the golden records back
/// to back, plus a torn tail) replays under the current one.
#[test]
fn old_journal_file_replays() {
    let dir = std::env::temp_dir().join(format!("fractal-wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let mut file: Vec<u8> = RECORDS_HEX.iter().flat_map(|h| unhex(h)).collect();
    let valid_len = file.len() as u64;
    file.extend_from_slice(&unhex(RECORDS_HEX[1])[..7]);
    std::fs::write(dir.join(JOURNAL_FILE), &file).expect("write journal");
    let (_journal, replay) = Journal::open(&dir).expect("open journal");
    assert_eq!(replay.replayed, RECORDS_HEX.len() as u64);
    assert_eq!(replay.valid_len, valid_len);
    let job = &replay.jobs[&1];
    assert_eq!(
        (job.token.as_str(), job.submit_seq, job.starts),
        ("tok-a", 6, 1)
    );
    assert_eq!(job.committed, Some((2, 42, vec![9, 9])));
    assert!(!job.incomplete());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_blob_is_byte_identical() {
    let r = report();
    assert_eq!(hex(&blob::encode_report(&r)), REPORT_HEX);
    let back = blob::decode_report(&unhex(REPORT_HEX)).expect("decode report");
    // Busy segments are not shipped; everything else survives.
    assert_eq!(back.elapsed, r.elapsed);
    assert_eq!(
        (back.bytes_served, back.steal_requests, back.steal_hits),
        (r.bytes_served, r.steal_requests, r.steal_hits)
    );
    assert_eq!((back.faults, back.planner), (r.faults, r.planner));
    assert_eq!(blob::encode_report(&back), unhex(REPORT_HEX));
    assert_eq!(back.cores.len(), 2);
    assert_eq!(back.cores[1].0, GlobalCoreId { worker: 2, core: 0 });
    assert_eq!(back.cores[1].1.arena_peak_bytes, 215);
}

#[test]
fn job_and_app_blobs_are_byte_identical() {
    let g = graph_from_edges(&[7, 8, 9], &[(0, 1, 4), (1, 2, 5)]);
    assert_eq!(hex(&blob::encode_job(&JOB_APP, &g)), JOB_HEX);
    let (app, g2) = blob::decode_job(&unhex(JOB_HEX)).expect("decode job");
    assert_eq!(app, JOB_APP);
    assert_eq!(blob::encode_graph(&g2), blob::encode_graph(&g));
    for (app, want) in APPS {
        check("app spec", app, &blob::encode_app_spec(app), want);
        assert_eq!(blob::decode_app_spec(&unhex(want)), Ok(*app));
    }
}

#[test]
fn aggregation_blobs_are_byte_identical() {
    let motifs = motifs_map();
    assert_eq!(hex(&blob::encode_motifs_map(&motifs)), MOTIFS_HEX);
    assert_eq!(blob::decode_motifs_map(&unhex(MOTIFS_HEX)), Ok(motifs));

    let seeds = [fsm_map(), HashMap::new()];
    assert_eq!(hex(&blob::encode_fsm_seeds(&seeds)), FSM_SEEDS_HEX);
    let back = blob::decode_fsm_seeds(&unhex(FSM_SEEDS_HEX)).expect("decode fsm seeds");
    assert_eq!(hex(&blob::encode_fsm_seeds(&back)), FSM_SEEDS_HEX);
    assert!(back[1].is_empty());
    for (code, sup) in fsm_map() {
        assert_eq!(back[0][&code].domains(), sup.domains());
    }

    assert_eq!(
        hex(&blob::encode_plan_totals(&PLAN_TOTALS)),
        PLAN_TOTALS_HEX
    );
    assert_eq!(
        blob::decode_plan_totals(&unhex(PLAN_TOTALS_HEX)),
        Ok(PLAN_TOTALS.to_vec())
    );
}

#[test]
fn stolen_unit_is_byte_identical() {
    assert_eq!(hex(&encode_unit(&unit())), UNIT_HEX);
    assert_eq!(decode_unit(&unhex(UNIT_HEX)), Ok(unit()));
}
