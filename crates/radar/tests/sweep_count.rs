//! Pins [`VERIFY_SWEEPS`] at exactly one tick per layer for every operation that
//! signs or verifies a whole model: signing, `detect`, each per-layer kernel and a full
//! key roll. The benchmark reports the counter as `core.verify_sweeps`, so a second
//! sweep sneaking into any of these paths shows up here first.
//!
//! The counter and the observability level are process-global, so this file holds a
//! single test and runs as its own binary.

use radar_core::{RadarConfig, RadarProtection, VERIFY_SWEEPS};
use radar_nn::{resnet20, ResNetConfig};
use radar_obs::{set_global_level, ObsLevel};
use radar_quant::QuantizedModel;

#[test]
fn every_whole_model_operation_sweeps_each_layer_once() {
    set_global_level(ObsLevel::Counters);
    let model = QuantizedModel::new(Box::new(resnet20(&ResNetConfig::tiny(4))));
    let layers = model.num_layers() as u64;
    VERIFY_SWEEPS.reset();

    let mut radar = RadarProtection::new(&model, RadarConfig::paper_default(16));
    assert_eq!(VERIFY_SWEEPS.reset(), layers, "signing");

    assert!(!radar.detect(&model).attack_detected());
    assert_eq!(VERIFY_SWEEPS.reset(), layers, "detect");

    let (mut dst, mut acc) = (Vec::new(), Vec::new());
    for layer in 0..model.num_layers() {
        let values = model.layer_values(layer);
        radar.verify_layer_values_with_scratch(layer, values, &mut acc);
        assert_eq!(VERIFY_SWEEPS.reset(), 1, "value kernel, layer {layer}");
        let bytes: Vec<u8> = values.iter().map(|&v| v as u8).collect();
        radar.fetch_verify_layer_at_epoch_with_scratch(
            radar.current_epoch(),
            layer,
            &bytes,
            &mut dst,
            &mut acc,
        );
        assert_eq!(VERIFY_SWEEPS.reset(), 1, "fetch kernel, layer {layer}");
    }

    radar.begin_rotation();
    while let Some(layer) = radar.next_unsigned_layer() {
        radar.resign_layer(layer, model.layer_values(layer));
    }
    radar.publish_epoch();
    radar.retire_previous();
    assert_eq!(VERIFY_SWEEPS.reset(), layers, "key roll");
}
