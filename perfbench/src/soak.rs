//! `live-soak`: the loopback-hub soak — 2 publishers × 3 subscribers,
//! 500-byte payloads, 20% Gilbert–Elliott loss on every data link —
//! running rmac-core over `rmac-wire` datagrams instead of the sim
//! engine. Oracle: `SoakReport::complete()` holds for every soak.

use std::hint::black_box;

use bytes::Bytes;
use rmac_live::soak::ge20;
use rmac_live::{run_loopback_soak, HubConfig, LiveConfig, LoopbackRunner, SoakConfig, SoakReport};
use rmac_wire::{
    codec, decode_datagram, encode_datagram, Datagram, Dest, DgramBody, Frame, NodeId,
};

use crate::host::{sub_seed, timed, E2e, Reference, Tally, Traced, Window};
use crate::layers::{median_rounds, Counts, Layers};

const PUBLISHERS: usize = 2;
const SUBSCRIBERS: usize = 3;
const PACKETS_PER_PUBLISHER: u64 = 1000;
const PAYLOAD: usize = 500;

pub fn config(seed: u64) -> SoakConfig {
    SoakConfig {
        publishers: PUBLISHERS,
        subscribers: SUBSCRIBERS,
        packets_per_publisher: PACKETS_PER_PUBLISHER,
        payload_len: PAYLOAD,
        hub: HubConfig {
            loss: Some(ge20()),
            seed,
            ..HubConfig::default()
        },
        seed,
        ..SoakConfig::default()
    }
}

/// The soak's mesh assembly: what `run_loopback_soak` builds before its
/// first step (every node a neighbor of every other, per-node MAC seeds).
fn assemble(cfg: &SoakConfig) -> LoopbackRunner {
    let all: Vec<NodeId> = (1..=(cfg.publishers + cfg.subscribers) as u16)
        .map(NodeId)
        .collect();
    let configs = all
        .iter()
        .map(|&id| {
            let config = LiveConfig {
                neighbors: all.iter().copied().filter(|&n| n != id).collect(),
                seed: cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(u64::from(id.0)),
                ..LiveConfig::default()
            };
            (id, config)
        })
        .collect();
    LoopbackRunner::new(configs, cfg.hub.clone())
}

/// The soak oracle: every packet reached every subscriber.
fn check_complete(seed: u64, r: &SoakReport, tally: &mut Tally) {
    tally.check(r.complete(), || {
        format!(
            "live-soak seed {seed}: {} of {} deliveries",
            r.deliveries, r.expected_deliveries
        )
    });
}

fn run_soak(cfg: &SoakConfig, tally: &mut Tally) -> (f64, Option<SoakReport>) {
    let (wall, report) = timed(|| tally.guard("live-soak", || run_loopback_soak(cfg)));
    if let Some(r) = &report {
        check_complete(cfg.seed, r, tally);
    }
    (wall, report)
}

pub fn run(seed: u64, window: &mut Window, tally: &mut Tally) -> E2e {
    let first = config(sub_seed(seed, 0));
    let mut e2e = E2e::new(&[Reference::Memory, Reference::Compute], 1);
    let mut k = 0;
    while window.more(k, 3) {
        let (wall, report) = run_soak(&config(sub_seed(seed, k as u64)), tally);
        if let Some(r) = report {
            e2e.round(wall, &[wall], r.packets_offered);
        }
        k += 1;
    }
    e2e.setup(&[Reference::Memory, Reference::Compute], |_| {
        assemble(&first)
    });
    e2e
}

/// Host nanoseconds to encode and to decode `d`, each averaged over a
/// batch of calls.
fn codec_ns(d: &Datagram) -> (f64, f64) {
    const CALLS: u32 = 20_000;
    let (enc_s, bytes) = timed(|| {
        let mut bytes = Vec::new();
        for _ in 0..CALLS {
            bytes = encode_datagram(black_box(d));
        }
        bytes
    });
    let (dec_s, ()) = timed(|| {
        for _ in 0..CALLS {
            black_box(decode_datagram(black_box(&bytes)).expect("datagram round-trips"));
        }
    });
    let per = 1e9 / f64::from(CALLS);
    (enc_s * per, dec_s * per)
}

/// Mean encode and decode nanoseconds over the soak's datagram mix: data
/// datagrams split evenly between MRTS and 500-byte data frames, control
/// datagrams all tone edges, weighted by the soak's own hub counts.
fn codec_mix_ns(report: &SoakReport) -> (f64, f64) {
    let src = NodeId(1);
    let subs: Vec<NodeId> = (0..SUBSCRIBERS as u16)
        .map(|i| NodeId(PUBLISHERS as u16 + 1 + i))
        .collect();
    let frame = |f: &Frame| Datagram {
        src,
        counter: 7,
        body: DgramBody::Frame(codec::encode(f)),
    };
    let mrts = frame(&Frame::mrts(src, subs.clone()));
    let data = frame(&Frame::data_reliable(
        src,
        Dest::Group(subs),
        Bytes::from(vec![0x5a; PAYLOAD]),
        7,
    ));
    let tone = Datagram {
        src,
        counter: 7,
        body: DgramBody::Tone { tone: 0, on: true },
    };
    let data_w = report.hub.data_sent as f64 / 2.0;
    let ctrl_w = report.hub.ctrl_sent as f64;
    let mut enc = 0.0;
    let mut dec = 0.0;
    for (d, w) in [(&mrts, data_w), (&data, data_w), (&tone, ctrl_w)] {
        let (e, de) = codec_ns(d);
        enc += e * w;
        dec += de * w;
    }
    let total = 2.0 * data_w + ctrl_w;
    (enc / total, dec / total)
}

pub fn trace(seed: u64, window: &mut Window, tally: &mut Tally) -> Traced {
    let cfg = config(sub_seed(seed, 0));
    let mut traced = Traced::default();
    let mut rounds: Vec<Layers> = Vec::new();
    while window.more(rounds.len(), 2) {
        let (wall, report) = run_soak(&cfg, tally);
        // The traced leg: the same soak inside the benchmark's own spans
        // (rmac-live exposes no in-crate tracing through the soak entry).
        let (traced_wall, traced_report) = run_soak(&cfg, tally);
        let (Some(r), Some(tr)) = (report, traced_report) else {
            break; // counted as failed; the result reports it
        };
        tally.check(tr == r, || {
            format!("live-soak seed {}: repeated soak differs", cfg.seed)
        });
        let offered = r.packets_offered as f64;
        let (enc_ns, dec_ns) = codec_mix_ns(&r);
        let encodes = (r.hub.data_sent + r.hub.ctrl_sent) as f64;
        let decodes = (r.hub.data_delivered + r.hub.ctrl_sent) as f64;

        let mut layers = Layers::new();
        layers.insert("live.steps_per_packet".into(), r.steps as f64 / offered);
        layers.insert("live.hub_datagrams_per_packet".into(), encodes / offered);
        layers.insert(
            "live.dup_ratio".into(),
            r.duplicates as f64 / r.deliveries as f64,
        );
        layers.insert(
            "live.mac_retx_per_packet".into(),
            r.mac_retransmissions as f64 / offered,
        );
        layers.insert("wire.codec_ns".into(), enc_ns + dec_ns);
        layers.insert(
            "wire.codec_share".into(),
            (enc_ns * encodes + dec_ns * decodes) / (wall * 1e9),
        );
        layers.insert("obs.trace_overhead_ratio".into(), traced_wall / wall);
        let counts = Counts::from([
            ("live.steps".to_string(), r.steps),
            ("live.hub_data_sent".to_string(), r.hub.data_sent),
            ("live.hub_ctrl_sent".to_string(), r.hub.ctrl_sent),
            ("live.duplicates".to_string(), r.duplicates),
            (
                "live.mac_retransmissions".to_string(),
                r.mac_retransmissions,
            ),
        ]);
        rounds.push(layers);
        traced.rounds.push(counts);
    }
    traced.layers = median_rounds(&rounds);
    traced
}
