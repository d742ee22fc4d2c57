//! Percentile and accounting rules behind every number the benchmark
//! reports.

use liquid::broker::ClientOutcome;

/// Percentiles the benchmark may report, in increasing order.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// An answer slower than this misses the limit `goodput_qps` counts
/// against: the p90 SLO bound of §5.4, 50 ms.
pub const GOODPUT_LIMIT_NS: u64 = 50_000_000;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of ascending `sorted` samples.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Samples strictly beyond quantile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether quantile `q` of `n` samples has [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The highest of [`PERCENTILES`] that is [`reportable`] for `n` samples.
pub fn highest_reportable(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&q| reportable(n, q))
}

/// An open-loop window whose sender fell this far behind its schedule is
/// invalid: it sent in bursts, not at the offered rate. 15 ms is 45 mean
/// gaps at 3000 QPS, about five times the p99 lag of a healthy window on
/// a 2-vCPU host, and under the 18 ms p50 SLO target.
pub const LAG_LIMIT_NS: u64 = 15_000_000;

/// Checks an open-loop window's send lags, in send order, against
/// [`LAG_LIMIT_NS`]: the highest reportable percentile up to p99, and the
/// median lag of the last tenth of sends, which rises when lag grows over
/// the window. Returns that percentile and its value, ns.
pub fn check_lag(lag_ns: &[u64]) -> Result<(f64, u64), String> {
    let n = lag_ns.len();
    if n == 0 {
        return Err("open-loop window sent nothing".to_owned());
    }
    let mut sorted = lag_ns.to_vec();
    sorted.sort_unstable();
    let q = highest_reportable(n).unwrap_or(0.5).min(0.99);
    let high = quantile(&sorted, q).expect("non-empty");
    let mut tail = lag_ns[n - (n / 10).max(1)..].to_vec();
    tail.sort_unstable();
    let tail_p50 = quantile(&tail, 0.5).expect("non-empty");
    if high > LAG_LIMIT_NS || tail_p50 > LAG_LIMIT_NS {
        return Err(format!(
            "open-loop sender fell behind: send lag p{} {:.3} ms, last tenth p50 {:.3} ms, \
             limit {} ms, n={n}",
            q * 100.0,
            high as f64 / 1e6,
            tail_p50 as f64 / 1e6,
            LAG_LIMIT_NS / 1_000_000
        ));
    }
    Ok((q, high))
}

/// Median of a small set of measurements (the `setup_s` repeats).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A correct answer: how long it took, and whether it is of the
/// workload's costliest kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Response time from when the query was due to be sent, ns.
    pub rt_ns: u64,
    /// Of the workload's costliest kind.
    pub slow_type: bool,
}

/// Client-side accounting of one measured window.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Queries offered.
    pub sent: u64,
    /// Answered (`ClientOutcome::Ok`), right or wrong.
    pub ok: u64,
    /// Refused by admission, at the broker or at a shard.
    pub refused: u64,
    /// Expired in a queue before an engine took them.
    pub expired: u64,
    /// Failed in execution or transport.
    pub failed: u64,
    /// Answered with a value the oracle disagrees with.
    pub wrong: u64,
    /// Correct answers.
    pub answers: Vec<Answer>,
}

impl Tally {
    /// Accounts the outcome of one sent query; `correct` is the oracle's
    /// verdict on an `Ok` answer.
    pub fn record(&mut self, outcome: ClientOutcome, answer: Answer, correct: bool) {
        match outcome {
            ClientOutcome::Ok(_) if correct => {
                self.ok += 1;
                self.answers.push(answer);
            }
            ClientOutcome::Ok(_) => {
                self.ok += 1;
                self.wrong += 1;
            }
            ClientOutcome::Rejected(_) | ClientOutcome::ShardRejected => self.refused += 1,
            ClientOutcome::Expired => self.expired += 1,
            ClientOutcome::Failed => self.failed += 1,
        }
    }

    /// Folds another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.refused += other.refused;
        self.expired += other.expired;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.answers.extend(other.answers);
    }

    /// Query conservation at the client: every query sent has exactly one
    /// outcome.
    pub fn conserved(&self) -> bool {
        self.sent == self.ok + self.refused + self.expired + self.failed
    }

    /// Errors: expired, failed and wrong answers. Refusals are not errors.
    pub fn errors(&self) -> u64 {
        self.expired + self.failed + self.wrong
    }

    /// Correct answers within [`GOODPUT_LIMIT_NS`]; refused, slow,
    /// expired, failed and wrong outcomes all count as misses.
    pub fn good(&self) -> u64 {
        self.answers
            .iter()
            .filter(|a| a.rt_ns <= GOODPUT_LIMIT_NS)
            .count() as u64
    }

    /// Share of attempted queries that did not end in an error, percent.
    pub fn error_free_pct(&self) -> f64 {
        100.0 * (self.sent - self.errors()) as f64 / self.sent.max(1) as f64
    }

    /// Ascending response times of all correct answers, or of those of
    /// the costliest kind.
    pub fn sorted_rt(&self, slow_type_only: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .answers
            .iter()
            .filter(|a| a.slow_type || !slow_type_only)
            .map(|a| a.rt_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

/// The client metrics of one measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Correct answers within [`GOODPUT_LIMIT_NS`] per second, 1/s.
    pub goodput_qps: f64,
    /// Response-time median, ns.
    pub rt_p50_ns: f64,
    /// Response-time p99, ns.
    pub rt_p99_ns: f64,
    /// Median response time of the costliest kind, ns.
    pub slow_type_rt_p50_ns: f64,
    /// Correct answers, and those of the costliest kind.
    pub answers: (usize, usize),
}

impl WindowStats {
    /// The metrics of a window of `window_s` seconds. Fails when there are
    /// too few answers for the percentiles reported.
    pub fn of(t: &Tally, window_s: f64) -> Result<Self, String> {
        let all = t.sorted_rt(false);
        let slow = t.sorted_rt(true);
        if !reportable(all.len(), 0.99) || !reportable(slow.len(), 0.5) {
            return Err(format!(
                "a window holds only {} answers ({} of the costliest kind): too few for its \
                 p99 and median; measure longer",
                all.len(),
                slow.len()
            ));
        }
        Ok(Self {
            goodput_qps: t.good() as f64 / window_s,
            rt_p50_ns: quantile(&all, 0.5).expect("checked above") as f64,
            rt_p99_ns: quantile(&all, 0.99).expect("checked above") as f64,
            slow_type_rt_p50_ns: quantile(&slow, 0.5).expect("checked above") as f64,
            answers: (all.len(), slow.len()),
        })
    }

    /// Each metric's median over `rounds`, and the fewest answers any
    /// round had.
    pub fn median(rounds: &[WindowStats]) -> Self {
        let med =
            |f: fn(&WindowStats) -> f64| median_f64(&rounds.iter().map(f).collect::<Vec<_>>());
        Self {
            goodput_qps: med(|r| r.goodput_qps),
            rt_p50_ns: med(|r| r.rt_p50_ns),
            rt_p99_ns: med(|r| r.rt_p99_ns),
            slow_type_rt_p50_ns: med(|r| r.slow_type_rt_p50_ns),
            answers: (
                rounds.iter().map(|r| r.answers.0).min().unwrap_or(0),
                rounds.iter().map(|r| r.answers.1).min().unwrap_or(0),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bouncer_core::policy::RejectReason;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; p99.9 has 1.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_reportable(1000), Some(0.99));
        assert_eq!(highest_reportable(999), Some(0.9));
        assert_eq!(highest_reportable(10_000), Some(0.999));
        assert_eq!(highest_reportable(100_000), Some(0.9999));
        assert_eq!(highest_reportable(20), Some(0.5));
        assert_eq!(highest_reportable(19), None);
        assert!(!reportable(0, 0.5));
    }

    fn ans(rt_ns: u64) -> Answer {
        Answer {
            rt_ns,
            slow_type: false,
        }
    }

    #[test]
    fn goodput_counts_refused_and_slow_answers_as_misses() {
        let mut t = Tally {
            sent: 8,
            ..Tally::default()
        };
        t.record(ClientOutcome::Ok(1), ans(1_000_000), true);
        t.record(ClientOutcome::Ok(1), ans(GOODPUT_LIMIT_NS), true);
        t.record(ClientOutcome::Ok(1), ans(GOODPUT_LIMIT_NS + 1), true);
        let refused = ClientOutcome::Rejected(RejectReason::PredictedSloViolation);
        t.record(refused, ans(0), true);
        t.record(ClientOutcome::ShardRejected, ans(0), true);
        t.record(ClientOutcome::Ok(7), ans(1_000), false);
        t.record(ClientOutcome::Expired, ans(0), true);
        t.record(ClientOutcome::Failed, ans(0), true);
        assert_eq!(t.good(), 2);
        assert_eq!(t.refused, 2);
        assert_eq!(t.wrong, 1);
        assert_eq!(t.errors(), 3);
        assert_eq!(t.answers.len(), 3);
        assert!(t.conserved());
        assert!((t.error_free_pct() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn merge_keeps_conservation() {
        let mut a = Tally {
            sent: 1,
            ..Tally::default()
        };
        a.record(ClientOutcome::Ok(1), ans(5), true);
        let mut b = Tally {
            sent: 2,
            ..Tally::default()
        };
        b.record(ClientOutcome::Failed, ans(0), true);
        b.record(ClientOutcome::Ok(1), ans(3), true);
        a.merge(b);
        assert_eq!(a.sent, 3);
        assert_eq!(a.sorted_rt(false), vec![3, 5]);
        assert!(a.conserved());
        a.sent += 1;
        assert!(
            !a.conserved(),
            "a query without an outcome breaks conservation"
        );
    }

    #[test]
    fn window_stats_and_their_median_over_rounds() {
        // 2000 answers a round, a tenth of them slower than the limit,
        // and one refusal; in round 0 a stall makes every answer slow.
        let round = |stalled: bool| {
            let mut t = Tally {
                sent: 2001,
                ..Tally::default()
            };
            t.record(ClientOutcome::ShardRejected, ans(0), true);
            for i in 0..2000u64 {
                let rt = if stalled || i % 10 == 0 {
                    80_000_000
                } else {
                    1_000_000 + i
                };
                let a = Answer {
                    rt_ns: rt,
                    slow_type: i % 4 == 0,
                };
                t.record(ClientOutcome::Ok(1), a, true);
            }
            WindowStats::of(&t, 2.0).unwrap()
        };
        let rounds = vec![round(true), round(false), round(false)];
        assert_eq!(
            rounds[1].goodput_qps, 900.0,
            "refused and slow answers are misses"
        );
        assert_eq!(rounds[0].goodput_qps, 0.0);
        let m = WindowStats::median(&rounds);
        assert_eq!(
            m.goodput_qps, 900.0,
            "the stalled round does not move the median"
        );
        assert_eq!(m.answers, (2000, 500));
        assert_eq!(m.rt_p99_ns, 80_000_000.0);
        assert!(m.rt_p50_ns < 2_000_000.0);
        // Too few answers for a p99 is refused, not reported.
        let mut short = Tally::default();
        for _ in 0..999 {
            short.record(ClientOutcome::Ok(1), ans(1), true);
        }
        assert!(WindowStats::of(&short, 1.0).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn lag_check_fails_a_sender_that_falls_behind() {
        // Steady 200 µs lag with a few isolated 30 ms stalls (under 1 %).
        let mut steady = vec![200_000u64; 4500];
        for i in (0..4500).step_by(900) {
            steady[i] = 30_000_000;
        }
        assert_eq!(check_lag(&steady), Ok((0.99, 200_000)));
        // Lag that grows over the window to 20 ms: the last tenth is late.
        let growing: Vec<u64> = (0..4500u64).map(|i| i * 20_000_000 / 4500).collect();
        assert!(check_lag(&growing).is_err());
        // A late burst in the last 5 % only: caught by the p99.
        let mut late = vec![200_000u64; 4500];
        for v in &mut late[4275..] {
            *v = 20_000_000;
        }
        assert!(check_lag(&late).is_err());
        // Too few sends for a p99: the highest reportable percentile is used.
        assert_eq!(check_lag(&[1_000; 100]), Ok((0.9, 1_000)));
        assert!(check_lag(&[]).is_err());
    }
}
