// Fixture: a worker that reaches around the verified snapshot — reading a layer
// straight out of DRAM, writing it back into its replica for a float forward, or
// rescanning the whole replica. Seeded violations for the `worker-snapshot-only` rule.
fn worker_loop(dram: &WeightDram, buf: &mut Vec<i8>) {
    for layer in 0..dram.num_layers() {
        dram.read_layer_into(layer, buf);
    }
}

fn float_worker(dram: &WeightDram, model: &mut QuantizedModel, input: &Tensor) -> Tensor {
    dram.fetch_layer_into(model, 0);
    model.forward_float(input)
}

fn rescanning_worker(prot: &RadarProtection, model: &QuantizedModel) -> bool {
    prot.detect(model).attack_detected()
}
