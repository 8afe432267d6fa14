//! Replicated memory distribution — the substrate behind every
//! copy-based simulation scheme (Upfal–Wigderson majority rule, as tightened
//! by the paper's Lemma 2).
//!
//! * [`map::MemoryMap`] — where the `r = 2c−1` copies of each of the `m`
//!   variables live among the `M` modules;
//! * [`store::ReplicatedStore`] — the copies themselves: `(value,
//!   timestamp)` pairs with quorum writes and majority (max-timestamp)
//!   reads;
//! * [`expansion`] — empirical verification of the expansion property
//!   the protocols rely on (Lemma 1 / Lemma 2);
//! * [`cluster::Clusters`] — the protocols' processor clusters of size
//!   `2c−1`.
//!
//! The correctness core is the *quorum intersection* argument (Thomas 1979,
//! Gifford 1979): any two `c`-subsets of `2c−1` copies intersect, so a read
//! that collects `c` copies always sees at least one copy carrying the most
//! recent write, identified by its timestamp.

pub mod cluster;
pub mod expansion;
pub mod map;
pub mod store;

pub use cluster::Clusters;
pub use expansion::{
    check_sampled, min_live_spread_exhaustive, min_live_spread_greedy, ExpansionReport,
};
pub use map::{MapKind, MemoryMap, ModuleId, VarId};
pub use store::{ReplicatedStore, Value};
