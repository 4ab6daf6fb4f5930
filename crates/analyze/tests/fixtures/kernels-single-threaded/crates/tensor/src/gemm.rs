// Fixture: an integer kernel that splits one call's output rows across scoped
// threads inside a serve worker. Seeded violation for the `kernels-single-threaded`
// rule.
fn gemm_rows_split(w: &[i8], x: &[i8], out: &mut [f32], rows: usize, k: usize) {
    let (top, bottom) = out.split_at_mut(rows / 2 * k);
    std::thread::scope(|scope| {
        scope.spawn(|| accumulate(w, x, top));
        scope.spawn(|| accumulate(w, x, bottom));
    });
}
