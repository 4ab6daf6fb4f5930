// Fixture: a verify sweep that hands half a layer to a spawned thread. Seeded
// violation for the `kernels-single-threaded` rule; the spawn inside the test
// module is exempt.
fn masked_sums_split(weights: Vec<i8>) -> i32 {
    let half = std::thread::spawn(move || weights.iter().map(|&w| w as i32).sum::<i32>());
    half.join().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn sums_agree_across_threads() {
        let handle = std::thread::spawn(|| 1);
        assert_eq!(handle.join().ok(), Some(1));
    }
}
