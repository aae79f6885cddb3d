//! The one percentile rule every metric uses.

use gfbench::stats::{median, percentile};

#[test]
fn nearest_rank_returns_a_sample() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 50.0), 5.0);
    assert_eq!(percentile(&ten, 75.0), 8.0);
    assert_eq!(percentile(&ten, 99.0), 10.0);
    assert_eq!(percentile(&ten, 100.0), 10.0);
    assert_eq!(percentile(&ten, 0.0), 1.0);
    assert_eq!(percentile(&ten, 10.0), 1.0);
    assert_eq!(percentile(&ten, 10.1), 2.0);
}

#[test]
fn order_of_the_samples_does_not_matter() {
    let samples = [316.0, 385.0, 1.0, 40.0, 316.0];
    assert_eq!(median(&samples), 316.0);
    assert_eq!(percentile(&samples, 99.0), 385.0);
    assert_eq!(percentile(&samples, 20.0), 1.0);
}

#[test]
fn one_sample_is_every_percentile() {
    for p in [0.0, 50.0, 99.0, 100.0] {
        assert_eq!(percentile(&[7.5], p), 7.5);
    }
}

#[test]
fn median_of_an_even_count_is_the_lower_middle() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
}

#[test]
#[should_panic(expected = "empty")]
fn an_empty_sample_set_is_a_bug() {
    percentile(&[], 50.0);
}
