//! Timing and storage overhead experiments: Table IV (RADAR on the gem5-substitute
//! platform) and Table V (comparison with CRC, with each scheme's measured encode
//! cost per group).

use std::hint::black_box;

use radar_archsim::{simulate, ArchParams, DetectionScheme, NetworkWorkload};
use radar_core::{group_signature, SecretKey, SignatureBits};
use radar_integrity::{Crc, GroupCode, HammingSecDed};
use radar_obs::Stopwatch;

use crate::report::Report;

/// The `(workload, RADAR group size)` pairs the paper evaluates in Tables IV and V.
fn settings() -> Vec<(NetworkWorkload, usize)> {
    vec![
        (NetworkWorkload::resnet20_cifar(), 8),
        (NetworkWorkload::resnet18_imagenet(), 512),
    ]
}

/// Table IV: inference-time overhead of RADAR, without and with interleaving, next to
/// the Hamming SEC-DED baseline at the same group size.
pub fn table4() -> Report {
    let params = ArchParams::cortex_m4f();
    let mut report = Report::new("Table IV — time overhead of RADAR (analytical gem5 substitute)");
    report.row(&[
        "model".into(),
        "original".into(),
        "RADAR".into(),
        "(interleave)".into(),
        "Hamming".into(),
        "overhead".into(),
        "(interleave)".into(),
        "(Hamming)".into(),
    ]);
    for (workload, g) in settings() {
        let original = simulate(&workload, &params, DetectionScheme::None);
        let plain = simulate(
            &workload,
            &params,
            DetectionScheme::Radar {
                group_size: g,
                interleaved: false,
            },
        );
        let inter = simulate(
            &workload,
            &params,
            DetectionScheme::Radar {
                group_size: g,
                interleaved: true,
            },
        );
        let hamming = simulate(
            &workload,
            &params,
            DetectionScheme::Hamming { group_size: g },
        );
        report.row(&[
            workload.name().to_owned(),
            format!("{:.1}ms", original.inference_seconds * 1e3),
            format!("{:.1}ms", plain.total_seconds() * 1e3),
            format!("{:.1}ms", inter.total_seconds() * 1e3),
            format!("{:.1}ms", hamming.total_seconds() * 1e3),
            format!("{:.2}%", plain.overhead_percent()),
            format!("{:.2}%", inter.overhead_percent()),
            format!("{:.2}%", hamming.overhead_percent()),
        ]);
    }
    report
}

/// Table V: time and storage overhead of CRC schemes compared with RADAR, plus the
/// measured cost of encoding one group with each scheme on the host running it.
pub fn table5() -> Report {
    let params = ArchParams::cortex_m4f();
    let key = SecretKey::new(0x1234);
    let mut report = Report::new("Table V — overhead comparison with CRC techniques");
    report.line(format!(
        "time columns: analytical Cortex-M4F model; encode: measured ns to encode one \
         group on this host (median of {ENCODE_BATCHES} batches of {ENCODE_WEIGHTS} weights)"
    ));
    report.row(&[
        "model".into(),
        "scheme".into(),
        "total time".into(),
        "detect time".into(),
        "storage (KB)".into(),
        "encode ns".into(),
    ]);
    for (workload, g) in settings() {
        let weights = workload.total_weights();
        let group: Vec<i8> = (0..g).map(|i| ((i % 251) as i32 - 125) as i8).collect();
        let code_row = |code: &dyn GroupCode, scheme: DetectionScheme| {
            (
                format!("{} (G={g})", code.name()),
                scheme,
                code.storage_bytes(weights, g) as f64,
                encode_ns(&group, |x| code.encode(x)),
            )
        };
        // CRC-7 at G=8; at G=512, CRC-13 and the CRC-10 the paper quotes for the
        // "protect only MSBs" variant.
        let crcs = if g == 8 {
            vec![Crc::crc7()]
        } else {
            vec![Crc::crc13(), Crc::crc10()]
        };
        let crc_scheme = |width| DetectionScheme::Crc {
            width,
            group_size: g,
        };
        let mut rows: Vec<_> = crcs
            .iter()
            .map(|crc| code_row(crc, crc_scheme(crc.width())))
            .collect();
        // The SEC-DED baseline radar-integrity implements, at the same group size.
        rows.push(code_row(
            &HammingSecDed::new(),
            DetectionScheme::Hamming { group_size: g },
        ));
        // The platform model charges the 3-bit signature of Section VIII the same
        // masked sum as the 2-bit one; it stores one more bit per group.
        for (label, bits) in [
            ("RADAR", SignatureBits::Two),
            ("RADAR 3-bit", SignatureBits::Three),
        ] {
            rows.push((
                format!("{label} (G={g})"),
                DetectionScheme::Radar {
                    group_size: g,
                    interleaved: true,
                },
                (weights.div_ceil(g) * bits.bits() as usize) as f64 / 8.0,
                encode_ns(&group, |x| group_signature(x, &key, bits)),
            ));
        }

        for (i, (scheme, detection, storage_bytes, encode)) in rows.into_iter().enumerate() {
            let timing = simulate(&workload, &params, detection);
            report.row(&[
                if i == 0 {
                    workload.name().to_owned()
                } else {
                    String::new()
                },
                scheme,
                format!("{:.3}s", timing.total_seconds()),
                format!("{:.3}s", timing.detection_seconds),
                format!("{:.1}", storage_bytes / 1024.0),
                format!("{encode:.1}"),
            ]);
        }
    }
    report
}

/// Timed batches per [`encode_ns`] measurement.
const ENCODE_BATCHES: usize = 7;
/// Weights encoded per timed batch, so every group size runs about as long.
const ENCODE_WEIGHTS: usize = 65_536;

/// Median wall-clock nanoseconds per call of `encode` on `group`.
fn encode_ns<T>(group: &[i8], mut encode: impl FnMut(&[i8]) -> T) -> f64 {
    let calls = (ENCODE_WEIGHTS / group.len()).max(1);
    let mut per_call: Vec<f64> = (0..ENCODE_BATCHES)
        .map(|_| {
            let clock = Stopwatch::start();
            for _ in 0..calls {
                black_box(encode(black_box(group)));
            }
            clock.elapsed_ns() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[ENCODE_BATCHES / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_measures_an_encode_time_for_every_scheme_row() {
        let text = table5().render();
        let rows: Vec<&str> = text.lines().filter(|l| l.contains("(G=")).collect();
        assert_eq!(rows.len(), 9, "{text}");
        for row in rows {
            let encode = row.rsplit(' ').next().and_then(|ns| ns.parse::<f64>().ok());
            assert!(
                encode.is_some_and(|ns| ns > 0.0),
                "no encode time in {row:?}"
            );
        }
    }
}
