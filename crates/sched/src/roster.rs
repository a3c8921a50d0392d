//! The tenant roster: a scheduler's tenants plus, by tenant id, the dense
//! columns every user picker reads.

use crate::tenant::Tenant;
use easeml_obs::RecorderHandle;
use std::ops::Deref;

/// The tenants of one scheduler, owned together with the per-tenant values
/// the user pickers read, each stored once in a column indexed by tenant
/// id:
///
/// * a live bitset (bit `i % 64` of word `i / 64`) and its live count;
/// * σ̃ ([`Tenant::sigma_tilde`]);
/// * the max-UCB gap ([`Tenant::ucb_gap`]);
/// * the best reward, `-0.0` before the first observation.
///
/// GREEDY's threshold sum, candidate filter and argmax and HYBRID's
/// best-reward sum are folds over contiguous `f64`s in id order, and a
/// round-robin pick is `r mod n` while every tenant is live and a popcount
/// walk over the bitset otherwise; none of them strides the tenants.
///
/// A roster hands its tenants out only by shared reference (it derefs to
/// `[Tenant]`), so every mutation goes through one of its methods, and the
/// ones that can move a column ([`Roster::push`], [`Roster::observe`],
/// [`Roster::set_active`]) refresh that tenant's entries.
/// [`Roster::check_columns`] holds the columns to a recomputation from the
/// tenants.
///
/// # Examples
///
/// ```
/// use easeml_bandit::{BetaSchedule, GpUcb};
/// use easeml_gp::ArmPrior;
/// use easeml_sched::{Roster, Tenant};
///
/// let beta = BetaSchedule::Simple { num_arms: 2, delta: 0.1 };
/// let mut roster: Roster = (0..3)
///     .map(|i| Tenant::new(i, GpUcb::cost_oblivious(
///         ArmPrior::independent(2, 1.0), 1e-3, beta)))
///     .collect();
/// roster.observe(1, 0, 0.7);
/// roster.set_active(2, false);
/// assert_eq!(roster.live_count(), 2);
/// assert_eq!(roster.live_ids().collect::<Vec<_>>(), vec![0, 1]);
/// assert_eq!(roster.best_rewards()[1], 0.7);
/// assert_eq!(roster[1].serves(), 1);
/// assert!(roster.check_columns().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Roster {
    tenants: Vec<Tenant>,
    /// Bit `i % 64` of word `i / 64` is set iff tenant `i` is live; bits at
    /// or past `tenants.len()` stay clear.
    live: Vec<u64>,
    /// Set bits in `live`.
    live_count: usize,
    sigma_tilde: Vec<f64>,
    ucb_gap: Vec<f64>,
    /// `-0.0` until the first observation: it is the identity of f64
    /// addition, so the column's in-order sum has the bits of the sum over
    /// the observed bests alone.
    best_reward: Vec<f64>,
}

impl Roster {
    /// An empty roster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `tenant`, live, and returns its id.
    ///
    /// # Panics
    ///
    /// Panics unless `tenant.id()` is the roster's length: tenant ids index
    /// the columns.
    pub fn push(&mut self, tenant: Tenant) -> usize {
        let id = self.tenants.len();
        assert_eq!(tenant.id(), id, "tenant ids must equal their slots");
        let [sigma_tilde, ucb_gap, best_reward] = entries(&tenant);
        self.sigma_tilde.push(sigma_tilde);
        self.ucb_gap.push(ucb_gap);
        self.best_reward.push(best_reward);
        self.tenants.push(tenant);
        if id.is_multiple_of(64) {
            self.live.push(0);
        }
        self.set_active(id, true);
        id
    }

    /// Records tenant `id`'s serve ([`Tenant::observe`]) and refreshes its
    /// σ̃, UCB gap and best reward.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `arm` is out of range.
    pub fn observe(&mut self, id: usize, arm: usize, reward: f64) {
        self.tenants[id].observe(arm, reward);
        [self.sigma_tilde[id], self.ucb_gap[id], self.best_reward[id]] = entries(&self.tenants[id]);
    }

    /// Marks tenant `id` live or retired. Retirement only hides the tenant
    /// from pickers; its GP state stays intact so a checkpoint restore (or
    /// a re-join under the same id) resumes bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_active(&mut self, id: usize, active: bool) {
        assert!(id < self.tenants.len(), "no tenant {id}");
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if (self.live[word] & bit != 0) != active {
            self.live[word] ^= bit;
            if active {
                self.live_count += 1;
            } else {
                self.live_count -= 1;
            }
        }
    }

    /// Whether tenant `id` is live (the default) or retired.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn is_active(&self, id: usize) -> bool {
        assert!(id < self.tenants.len(), "no tenant {id}");
        self.live[id / 64] >> (id % 64) & 1 == 1
    }

    /// Number of live tenants.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// The live tenants' ids, ascending.
    pub fn live_ids(&self) -> LiveIds<'_> {
        let (&word, rest) = self.live.split_first().unwrap_or((&0, &[]));
        LiveIds {
            words: rest.iter(),
            word,
            base: 0,
        }
    }

    /// Masks `arm` out of (or back into) tenant `id`'s model selection
    /// ([`Tenant::set_arm_masked`]). The mask moves no column.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `arm` is out of range.
    pub fn set_arm_masked(&mut self, id: usize, arm: usize, masked: bool) {
        self.tenants[id].set_arm_masked(arm, masked);
    }

    /// Attaches `recorder` to every tenant's policy
    /// ([`Tenant::set_recorder`]).
    pub fn set_recorder(&mut self, recorder: &RecorderHandle) {
        for tenant in &mut self.tenants {
            tenant.set_recorder(recorder.clone());
        }
    }

    /// Every tenant's σ̃, by id.
    #[inline]
    pub fn sigma_tildes(&self) -> &[f64] {
        &self.sigma_tilde
    }

    /// Every tenant's max-UCB gap, by id.
    #[inline]
    pub fn ucb_gaps(&self) -> &[f64] {
        &self.ucb_gap
    }

    /// Every tenant's best reward, by id; `-0.0` for a tenant with no
    /// observation, so summing the column in id order gives the bits of
    /// the sum over the observed bests.
    #[inline]
    pub fn best_rewards(&self) -> &[f64] {
        &self.best_reward
    }

    /// Checks every column against a recomputation from the tenants (σ̃,
    /// gap and best reward bit for bit) and the live count against the
    /// bitset, naming the first entry that differs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the stale entry.
    pub fn check_columns(&self) -> Result<(), String> {
        for (id, t) in self.tenants.iter().enumerate() {
            let cached = [self.sigma_tilde[id], self.ucb_gap[id], self.best_reward[id]];
            let columns = ["sigma_tilde", "ucb_gap", "best_reward"];
            for ((column, cached), fresh) in columns.iter().zip(cached).zip(entries(t)) {
                if cached.to_bits() != fresh.to_bits() {
                    return Err(format!(
                        "tenant {id}: {column} is {cached:e}, recomputed {fresh:e}"
                    ));
                }
            }
        }
        let n = self.tenants.len();
        if self.live.len() != n.div_ceil(64) {
            return Err(format!("{} live words for {n} tenants", self.live.len()));
        }
        if let Some(id) = self.live_ids().find(|&id| id >= n) {
            return Err(format!("live bit {id} set past {n} tenants"));
        }
        let ones = self.live_ids().count();
        if ones != self.live_count {
            return Err(format!(
                "live count {} but {ones} live bits",
                self.live_count
            ));
        }
        Ok(())
    }

    /// Whether pickers draw from every tenant: all are live, or none is.
    /// The all-retired fallback keeps `pick` total; callers are expected
    /// to guard picking behind a live check, so it only shields against
    /// misuse.
    #[inline]
    pub(crate) fn picks_from_all(&self) -> bool {
        self.live_count == self.tenants.len() || self.live_count == 0
    }

    /// Size of the set pickers draw from (every tenant when none is live).
    #[inline]
    pub(crate) fn universe_len(&self) -> usize {
        if self.live_count == 0 {
            self.tenants.len()
        } else {
            self.live_count
        }
    }

    /// The ids pickers draw from, ascending: the live tenants, or every
    /// tenant when none is live. With every tenant live this is `0..n`, so
    /// each picker's choice and its RNG consumption are those of a fixed
    /// tenancy.
    pub(crate) fn universe(&self) -> Universe<'_> {
        if self.picks_from_all() {
            Universe::All(0..self.tenants.len())
        } else {
            Universe::Live(self.live_ids())
        }
    }

    /// The `(r mod n)`-th of the `n` ids pickers draw from, counted in id
    /// order — how every round-robin-style pick chooses. O(1) while every
    /// tenant is live; otherwise a popcount walk over the bitset words.
    ///
    /// # Panics
    ///
    /// Panics if the roster is empty.
    pub(crate) fn nth_live(&self, r: usize) -> usize {
        if self.picks_from_all() {
            return r % self.tenants.len();
        }
        let mut k = r % self.live_count;
        for (w, &word) in self.live.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1;
                }
                return w * 64 + word.trailing_zeros() as usize;
            }
            k -= ones;
        }
        unreachable!("the live count matches the bitset")
    }
}

/// `tenant`'s entries in the σ̃, UCB-gap and best-reward columns.
fn entries(tenant: &Tenant) -> [f64; 3] {
    [
        tenant.sigma_tilde(),
        tenant.ucb_gap(),
        tenant.best_reward().unwrap_or(-0.0),
    ]
}

impl Deref for Roster {
    type Target = [Tenant];

    #[inline]
    fn deref(&self) -> &[Tenant] {
        &self.tenants
    }
}

impl FromIterator<Tenant> for Roster {
    /// Pushes each tenant in turn ([`Roster::push`]), after reserving every
    /// column for the iterator's lower size bound.
    fn from_iter<I: IntoIterator<Item = Tenant>>(tenants: I) -> Self {
        let tenants = tenants.into_iter();
        let n = tenants.size_hint().0;
        let mut roster = Roster {
            tenants: Vec::with_capacity(n),
            live: Vec::with_capacity(n.div_ceil(64)),
            live_count: 0,
            sigma_tilde: Vec::with_capacity(n),
            ucb_gap: Vec::with_capacity(n),
            best_reward: Vec::with_capacity(n),
        };
        for tenant in tenants {
            roster.push(tenant);
        }
        roster
    }
}

/// The live tenants' ids in ascending order, read off the roster's bitset
/// ([`Roster::live_ids`]).
#[derive(Debug, Clone)]
pub struct LiveIds<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Not-yet-yielded bits of the current word.
    word: u64,
    /// Id of the current word's bit 0.
    base: usize,
}

impl Iterator for LiveIds<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// The ids a picker draws from ([`Roster::universe`]): a range while every
/// tenant counts, so the hot folds can match on it and run each case as
/// its own loop.
#[derive(Debug, Clone)]
pub(crate) enum Universe<'a> {
    /// Every tenant: all are live, or none is.
    All(std::ops::Range<usize>),
    /// The live tenants of a partly retired roster.
    Live(LiveIds<'a>),
}

impl Iterator for Universe<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Universe::All(ids) => ids.next(),
            Universe::Live(ids) => ids.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_bandit::{BetaSchedule, GpUcb};
    use easeml_gp::ArmPrior;

    fn roster(n: usize) -> Roster {
        (0..n)
            .map(|i| {
                let beta = BetaSchedule::Simple {
                    num_arms: 2,
                    delta: 0.1,
                };
                Tenant::new(
                    i,
                    GpUcb::cost_oblivious(ArmPrior::independent(2, 1.0), 0.01, beta),
                )
            })
            .collect()
    }

    /// The plain scans the bitset walks replace.
    fn scanned_live(r: &Roster) -> Vec<usize> {
        (0..r.len()).filter(|&i| r.is_active(i)).collect()
    }

    #[test]
    fn bitset_walks_match_a_scan_across_word_boundaries() {
        let mut r = roster(200);
        for id in [0, 1, 63, 64, 65, 127, 128, 150, 199] {
            r.set_active(id, false);
        }
        r.set_active(64, true);
        r.set_active(64, true);
        r.set_active(0, false);
        assert!(r.check_columns().is_ok());
        let live = scanned_live(&r);
        assert_eq!(r.live_ids().collect::<Vec<_>>(), live);
        assert_eq!(r.live_count(), live.len());
        assert_eq!(r.universe().collect::<Vec<_>>(), live);
        for step in 0..3 * live.len() {
            assert_eq!(r.nth_live(step), live[step % live.len()], "step {step}");
        }
    }

    #[test]
    fn all_live_and_all_retired_rosters_pick_from_every_tenant() {
        let mut r = roster(70);
        assert!(r.picks_from_all());
        assert_eq!(r.nth_live(141), 1);
        for id in 0..70 {
            r.set_active(id, false);
        }
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.live_ids().count(), 0);
        assert!(r.picks_from_all(), "the all-retired fallback");
        assert_eq!(r.universe_len(), 70);
        assert_eq!(
            r.universe().collect::<Vec<_>>(),
            (0..70).collect::<Vec<_>>()
        );
        assert_eq!(r.nth_live(75), 5);
    }

    #[test]
    fn observe_refreshes_the_served_tenants_columns() {
        let mut r = roster(3);
        assert_eq!(r.best_rewards()[1].to_bits(), (-0.0f64).to_bits());
        let before = r.sigma_tildes()[1];
        r.observe(1, 0, 0.6);
        assert_eq!(r.best_rewards()[1], 0.6);
        assert_ne!(r.sigma_tildes()[1].to_bits(), before.to_bits());
        assert_eq!(r.sigma_tildes()[0].to_bits(), before.to_bits());
        r.set_arm_masked(1, 1, true);
        assert!(r[1].policy().is_masked(1));
        assert!(r.check_columns().is_ok());
        // The sentinel is the identity of the in-order sum.
        let sum: f64 = r.best_rewards().iter().sum();
        let observed: f64 = r.iter().filter_map(Tenant::best_reward).sum();
        assert_eq!(sum.to_bits(), observed.to_bits());
    }

    #[test]
    fn activity_toggles_without_touching_bandit_state() {
        let mut r = roster(2);
        assert!(r.is_active(1), "tenants start live");
        r.observe(1, 1, 0.6);
        r.set_active(1, false);
        assert!(!r.is_active(1));
        assert_eq!(r.live_count(), 1);
        assert_eq!(r[1].best_reward(), Some(0.6), "retirement keeps GP state");
        assert_eq!(r.best_rewards()[1], 0.6, "and every column");
        r.set_active(1, true);
        assert!(r.is_active(1));
        assert_eq!(r[1].last_arm(), Some(1));
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn pushing_a_tenant_out_of_slot_panics() {
        let mut r = roster(2);
        let stray = roster(1)[0].clone();
        r.push(stray);
    }
}
