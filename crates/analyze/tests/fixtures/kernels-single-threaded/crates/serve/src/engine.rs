// Fixture: the serve engine's workers are the sanctioned threads; the
// `kernels-single-threaded` rule does not cover this crate.
fn serve(workers: usize) {
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {});
        }
    });
}
