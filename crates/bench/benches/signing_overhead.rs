//! §7.2 defense overhead: cost of signing + verifying one second of video
//! (25 frames) under each policy. The paper proposes exactly this
//! trade-off: "we can further reduce overhead by signing only selective
//! frames or signing hashes across multiple frames".

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use livescope_proto::rtmp::VideoFrame;
use livescope_security::{KeyPair, SigningPolicy, StreamSigner, StreamVerifier};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn frames() -> Vec<VideoFrame> {
    (0..25u64)
        .map(|i| VideoFrame::new(i, i * 40_000, i == 0, Bytes::from(vec![3u8; 2_500])))
        .collect()
}

fn bench_signing(c: &mut Criterion) {
    let keys = KeyPair::generate(&mut SmallRng::seed_from_u64(1));
    let mut group = c.benchmark_group("signing_overhead");
    for (name, policy) in [
        ("every_frame", SigningPolicy::EveryFrame),
        ("every_10th", SigningPolicy::EveryKth(10)),
        ("hash_chain_25", SigningPolicy::HashChain(25)),
    ] {
        group.bench_with_input(
            BenchmarkId::new("sign_and_verify_1s", name),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut signer = StreamSigner::new(keys, policy);
                    let mut verifier = StreamVerifier::new(keys.public(), policy);
                    for mut f in frames() {
                        signer.process(&mut f);
                        verifier.process(&f);
                    }
                    assert_eq!(verifier.forged, 0);
                    verifier.verified
                })
            },
        );
    }
    // The §7.2 alternative: full-channel encryption (RTMPS). Encrypting
    // one second of one connection's video — multiply by audience size
    // for the server-side fan-out cost.
    group.bench_function("rtmps_encrypt_decrypt_1s", |b| {
        use livescope_security::RtmpsChannel;
        b.iter(|| {
            let mut tx = RtmpsChannel::new(0xFACE);
            let mut rx = RtmpsChannel::new(0xFACE);
            for f in frames() {
                let wire = livescope_proto::rtmp::RtmpMessage::Frame(f).encode();
                let protected = tx.protect(&wire);
                rx.open(protected).unwrap();
            }
            rx.messages_opened
        })
    });
    group.finish();
}

criterion_group!(benches, bench_signing);
criterion_main!(benches);
