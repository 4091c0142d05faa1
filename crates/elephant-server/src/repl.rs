//! Replication role state shared between `start()` and the executor.
//!
//! The executor answers `REPLICA` and `LAG`, and the router samples the
//! replication metrics, from this snapshot of the topology: which role the
//! server plays, the leader's follower registry (set after the replication
//! listener binds, hence the `OnceLock`), and the follower's own progress
//! counters.

use crate::metrics::{sample, Metric};
use elephant_repl::{FollowerStatus, LeaderRegistry};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Which part a server plays in a replication topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplRole {
    /// No replication configured.
    Standalone,
    /// Owns the durable store and streams its WAL to followers.
    Leader,
    /// Applies the leader's WAL into a read-only engine.
    Follower,
}

impl ReplRole {
    /// Lowercase label used in `STATS` and `REPLICA` bodies.
    pub fn label(&self) -> &'static str {
        match self {
            ReplRole::Standalone => "standalone",
            ReplRole::Leader => "leader",
            ReplRole::Follower => "follower",
        }
    }
}

/// Topology info behind `REPLICA`, `LAG` and the `repl_*` metrics.
#[derive(Debug)]
pub(crate) struct ReplState {
    role: ReplRole,
    /// Follower mode: the leader's replication address.
    leader_addr: Option<String>,
    /// Leader mode: per-follower counters, set once the listener is up.
    registry: OnceLock<Arc<LeaderRegistry>>,
    /// Follower mode: the apply loop's progress.
    follower: Option<Arc<FollowerStatus>>,
}

impl ReplState {
    pub fn standalone() -> ReplState {
        ReplState {
            role: ReplRole::Standalone,
            leader_addr: None,
            registry: OnceLock::new(),
            follower: None,
        }
    }

    pub fn leader() -> ReplState {
        ReplState {
            role: ReplRole::Leader,
            leader_addr: None,
            registry: OnceLock::new(),
            follower: None,
        }
    }

    pub fn follower(leader_addr: String, status: Arc<FollowerStatus>) -> ReplState {
        ReplState {
            role: ReplRole::Follower,
            leader_addr: Some(leader_addr),
            registry: OnceLock::new(),
            follower: Some(status),
        }
    }

    pub fn role(&self) -> ReplRole {
        self.role
    }

    /// Install the leader registry once the replication listener is bound.
    pub fn set_registry(&self, registry: Arc<LeaderRegistry>) {
        let _ = self.registry.set(registry);
    }

    /// The `REPLICA` body: role plus one line per follower the leader has
    /// fed (leaders), or the upstream pointer (followers).
    pub fn render_replica(&self, committed_lsn: Option<u64>) -> String {
        let mut s = format!("role {}", self.role.label());
        match self.role {
            ReplRole::Leader => {
                if let Some(lsn) = committed_lsn {
                    let _ = write!(s, "\ncommitted_lsn {lsn}");
                }
                if let Some(reg) = self.registry.get() {
                    let _ = write!(s, "\nfollowers_connected {}", reg.connected());
                    if let Some(min) = reg.min_acked_lsn() {
                        let _ = write!(s, "\nmin_acked_lsn {min}");
                    }
                    for v in reg.views() {
                        let _ = write!(
                            s,
                            "\nfollower {} connected={} acked_lsn={} bytes_shipped={} snapshots_sent={}",
                            v.peer,
                            u8::from(v.connected),
                            v.acked_lsn,
                            v.bytes_shipped,
                            v.snapshots_sent
                        );
                    }
                } else {
                    let _ = write!(s, "\nfollowers_connected 0");
                }
            }
            ReplRole::Follower => {
                if let Some(addr) = &self.leader_addr {
                    let _ = write!(s, "\nleader {addr}");
                }
                if let Some(f) = &self.follower {
                    let _ = write!(s, "\n{}", render_follower(f));
                }
            }
            ReplRole::Standalone => {}
        }
        s
    }

    /// The `LAG` body: the smallest parseable surface a routing client
    /// needs — the leader's committed LSN, or the follower's applied vs.
    /// leader LSN.
    pub fn render_lag(&self, committed_lsn: Option<u64>) -> String {
        let mut s = format!("role {}", self.role.label());
        match self.role {
            ReplRole::Leader | ReplRole::Standalone => {
                if let Some(lsn) = committed_lsn {
                    let _ = write!(s, "\ncommitted_lsn {lsn}");
                }
                if let Some(reg) = self.registry.get() {
                    if let Some(min) = reg.min_acked_lsn() {
                        let _ = write!(s, "\nmin_acked_lsn {min}");
                    }
                }
            }
            ReplRole::Follower => {
                if let Some(f) = &self.follower {
                    let _ = write!(s, "\n{}", render_follower(f));
                }
            }
        }
        s
    }

    /// The replication samples `STATS` and `/metrics` report.
    pub fn samples(&self, committed_lsn: Option<u64>) -> Vec<Metric> {
        let mut v = vec![sample("repl_role", self.role.label())];
        match self.role {
            ReplRole::Leader => {
                if let Some(lsn) = committed_lsn {
                    v.push(sample("repl_committed_lsn", lsn));
                }
                if let Some(reg) = self.registry.get() {
                    let views = reg.views();
                    let bytes: u64 = views.iter().map(|f| f.bytes_shipped).sum();
                    let snaps: u64 = views.iter().map(|f| f.snapshots_sent).sum();
                    v.push(sample("repl_followers_connected", reg.connected() as u64));
                    v.push(sample("repl_bytes_shipped", bytes));
                    v.push(sample("repl_snapshots_sent", snaps));
                    if let Some(min) = reg.min_acked_lsn() {
                        v.push(sample("repl_min_acked_lsn", min));
                        if let Some(lsn) = committed_lsn {
                            v.push(sample("repl_lag_lsns", lsn.saturating_sub(min)));
                        }
                    }
                }
            }
            ReplRole::Follower => {
                if let Some(f) = &self.follower {
                    let o = Ordering::Acquire;
                    let relaxed = Ordering::Relaxed;
                    v.extend([
                        sample("repl_applied_lsn", f.applied_lsn.load(o)),
                        sample("repl_leader_lsn", f.leader_lsn.load(o)),
                        sample("repl_lag_lsns", f.lag_lsns()),
                        sample("repl_bytes_received", f.bytes_received.load(relaxed)),
                        sample("repl_snapshots_loaded", f.snapshots_loaded.load(relaxed)),
                        sample("repl_reconnects", f.reconnects.load(relaxed)),
                        sample("repl_connected", u64::from(f.connected.load(o))),
                    ]);
                }
            }
            ReplRole::Standalone => {}
        }
        v
    }
}

fn render_follower(f: &FollowerStatus) -> String {
    let o = Ordering::Acquire;
    let mut s = format!(
        "applied_lsn {}\nleader_lsn {}\nlag_lsns {}\nconnected {}\nreconnects {}\nsnapshots_loaded {}",
        f.applied_lsn.load(o),
        f.leader_lsn.load(o),
        f.lag_lsns(),
        u8::from(f.connected.load(o)),
        f.reconnects.load(Ordering::Relaxed),
        f.snapshots_loaded.load(Ordering::Relaxed),
    );
    if let Some(e) = f
        .last_error
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        let _ = write!(s, "\nlast_error {}", e.replace('\n', " "));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(st: &ReplState, committed_lsn: Option<u64>) -> String {
        crate::metrics::render_stats_text(&st.samples(committed_lsn))
    }

    #[test]
    fn standalone_renders_bare_role() {
        let st = ReplState::standalone();
        assert_eq!(st.render_replica(None), "role standalone");
        assert_eq!(st.render_lag(Some(7)), "role standalone\ncommitted_lsn 7");
        assert_eq!(stats(&st, None), "repl_role standalone");
    }

    #[test]
    fn leader_renders_followers_and_watermarks() {
        let st = ReplState::leader();
        assert_eq!(
            st.render_replica(Some(9)),
            "role leader\ncommitted_lsn 9\nfollowers_connected 0"
        );
        let reg = Arc::new(LeaderRegistry::default());
        let entry = reg.register("10.0.0.2:9999");
        entry.acked_lsn.store(8, Ordering::Release);
        entry.bytes_shipped.store(512, Ordering::Release);
        st.set_registry(Arc::clone(&reg));
        let body = st.render_replica(Some(9));
        assert!(body.contains("followers_connected 1"), "{body}");
        assert!(body.contains("min_acked_lsn 8"), "{body}");
        assert!(
            body.contains("follower 10.0.0.2:9999 connected=1 acked_lsn=8 bytes_shipped=512"),
            "{body}"
        );
        let stats = stats(&st, Some(9));
        assert!(stats.contains("repl_lag_lsns 1"), "{stats}");
        assert!(stats.contains("repl_bytes_shipped 512"), "{stats}");
    }

    #[test]
    fn follower_renders_progress_and_last_error() {
        let status = Arc::new(FollowerStatus::default());
        status.applied_lsn.store(5, Ordering::Release);
        status.leader_lsn.store(8, Ordering::Release);
        status.set_error("feed hole");
        let st = ReplState::follower("127.0.0.1:5463".into(), Arc::clone(&status));
        let body = st.render_lag(None);
        assert!(body.starts_with("role follower"), "{body}");
        assert!(body.contains("applied_lsn 5"), "{body}");
        assert!(body.contains("lag_lsns 3"), "{body}");
        assert!(body.contains("last_error feed hole"), "{body}");
        assert!(st.render_replica(None).contains("leader 127.0.0.1:5463"));
    }
}
