// HERD client process (§4.2-4.3).
//
// "Before writing a new request to server process s, a client posts a RECV
//  to its s-th UD QP... After writing out W requests, the client starts
//  checking for responses by polling for RECV completions. On each
//  successful completion, it posts another request."
//
// In WRITE mode the client holds one UC QP connected to the server machine
// (created by the initializer) and NS UD QPs for responses. In the §5.5
// SEND/SEND variant, requests also go out as UD SENDs from those QPs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/core.hpp"
#include "herd/config.hpp"
#include "herd/observer.hpp"
#include "herd/protocol.hpp"
#include "herd/service.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "workload/workload.hpp"

namespace herd::core {

class HerdClient {
 public:
  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t gets = 0;
    std::uint64_t get_hits = 0;
    std::uint64_t get_misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t retries = 0;           // application-level retransmissions
    std::uint64_t value_mismatches = 0;  // GET returned wrong bytes (must be 0)
    std::uint64_t bad_responses = 0;
    std::uint64_t deadline_exceeded = 0;  // requests retired at their deadline
    std::uint64_t failovers = 0;          // requests re-routed off a dead proc
    std::uint64_t probes = 0;             // requests sent to probe a dead proc
    std::uint64_t duplicate_responses = 0;  // responses to retired requests
    /// Replicated mode: requests bounced with kWrongEpoch (the shard moved
    /// under us) and re-issued to the authoritative primary. Not failures —
    /// never a terminal state.
    std::uint64_t stale_epoch_retries = 0;
    /// Shard-map entries actually advanced by a redirect's payload.
    std::uint64_t map_refreshes = 0;
    // Overload mode (all zero otherwise):
    /// kOverloaded replies received (attempts refused by admission control;
    /// never terminal — the request retries after the retry-after hint).
    std::uint64_t overload_sheds = 0;
    /// Requests retired at their deadline with EVERY posted attempt
    /// answered kOverloaded — provably never applied (the chaos checker
    /// removes these from histories instead of treating them as
    /// maybe-applied). A subset of deadline_exceeded.
    std::uint64_t shed_never_applied = 0;
    std::uint64_t breaker_opens = 0;   // circuit breaker tripped open
    std::uint64_t breaker_probes = 0;  // half-open probes let through
    std::uint64_t breaker_held = 0;    // issues delayed by an open breaker
  };

  /// `mem_base` is the start of a private arena in the client host's memory
  /// (clients sharing a host must use disjoint arenas; see arena_bytes()).
  HerdClient(cluster::Host& host, std::uint32_t id, HerdService& service,
             const workload::WorkloadConfig& wl, std::uint64_t mem_base);

  HerdClient(const HerdClient&) = delete;
  HerdClient& operator=(const HerdClient&) = delete;

  /// Bytes of host memory one client needs.
  static std::uint64_t arena_bytes(const HerdConfig& cfg);

  /// Begins issuing requests (keeps the window full until stop()).
  void start();
  void stop() { running_ = false; }

  /// Verify GET payloads against the deterministic value pattern (slower;
  /// enabled in tests, disabled in throughput benches).
  void set_verify_values(bool v) { verify_ = v; }

  /// Enables application-level retries at a fixed interval: if a request
  /// sees no response within `timeout`, the client re-WRITEs it into the
  /// same slot. This is the paper's §2.2.3 tradeoff made concrete —
  /// unreliable transports "sacrifice transport-level retransmission ... at
  /// the cost of rare application-level retries". 0 disables (the default).
  /// Legacy shim for set_resilience() with multiplier 1 and no jitter.
  void set_retry_timeout(sim::Tick timeout) {
    ClientResilience r;
    r.retry_timeout = timeout;
    r.backoff_multiplier = 1.0;
    r.jitter = 0.0;
    set_resilience(r);
  }

  /// Full resilience policy: exponential backoff with jitter, per-request
  /// deadlines, and failover to a surviving server process. Deadlines and
  /// failover require HerdConfig::request_tokens — enforced at config-build
  /// time by HerdConfigBuilder::validate() (which TestbedConfig::validate()
  /// delegates to), not here.
  void set_resilience(const ClientResilience& r);
  const ClientResilience& resilience() const { return res_; }

  /// History hook for the chaos harness (nullptr = no recording).
  void set_observer(HistoryObserver* obs) { observer_ = obs; }

  /// Jitter-free backoff for the attempt-th retry: retry_timeout grown by
  /// backoff_multiplier (clamped to >= 1, so the schedule is monotone
  /// non-decreasing) per attempt, capped at backoff_max — including attempt
  /// 0, so no interval ever exceeds the cap. Saturates well below Tick's
  /// range instead of overflowing the double -> Tick cast.
  static sim::Tick base_backoff(const ClientResilience& res,
                                std::uint32_t attempt);

  /// base_backoff with this client's uniform +/- jitter applied (draws from
  /// the client's jitter RNG; public for property tests).
  sim::Tick backoff_delay(std::uint32_t attempt);

  /// Requests currently in flight (0 after a drained shutdown — the
  /// "every request reaches a terminal state" check).
  std::uint32_t outstanding() const { return outstanding_; }

  /// Appends the trace context (trace id, open root span) of every sampled
  /// request still in flight.
  void in_flight_traces(std::vector<obs::TraceCtx>& out) const;

  /// True if the client currently suspects server process `s` is dead.
  bool proc_suspected(std::uint32_t s) const { return proc_down_.at(s) != 0; }

  const Stats& stats() const { return stats_; }
  sim::LatencyHistogram& latency() { return latency_; }
  void reset_stats() {
    stats_ = Stats{};
    latency_.clear();
  }

 private:
  struct InFlight {
    sim::Tick sent = 0;
    sim::Tick deadline = 0;       // 0 = none
    std::uint64_t seq = 0;        // retry correlation
    std::uint64_t r = 0;          // per-target request counter (slot ring)
    std::uint32_t target = 0;     // server process currently addressed
    std::uint32_t attempt = 0;    // retries so far
    /// Attempts actually put on the wire vs. attempts answered kOverloaded.
    /// At deadline retirement, posts == sheds proves the op never applied
    /// anywhere (each shed is a per-attempt not-applied guarantee).
    std::uint32_t posts = 0;
    std::uint32_t sheds = 0;
    /// Retry-after hold: on_timer must not re-post before this tick (set
    /// from a kOverloaded hint; 0 = no hold).
    sim::Tick hold_until = 0;
    /// Causal identity of the sampled request: trace id (client id << 32)
    /// | seq of the FIRST attempt, preserved verbatim across retries,
    /// redirects, failover re-sends, and shed/backoff cycles (0 = not
    /// sampled), and its open "request" root span as parent (closed at the
    /// terminal state).
    obs::TraceCtx trace{};
    workload::Op op{};
  };

  void pump();                    // fill the request window
  void issue(const workload::Op& op);
  void post_request(std::uint32_t s, std::uint64_t r, const workload::Op& op,
                    std::uint64_t seq, sim::Tick deadline,
                    obs::TraceCtx trace);
  void arm_timer(std::uint32_t s, std::uint64_t seq);
  void on_timer(std::uint32_t s, std::uint64_t seq,
                std::uint32_t armed_attempt);
  void on_response();             // recv CQ notify
  void handle_response(const verbs::Wc& wc);
  /// kOverloaded reply for `fl` (already unlinked from inflight_[s]):
  /// breaker bookkeeping, then a delayed re-post after the retry-after
  /// hint (folded into the backoff schedule).
  void handle_shed(std::uint32_t s, InFlight fl, sim::Tick hint);
  /// Fires when a shed request's retry-after hold expires: re-posts it if
  /// it is still outstanding.
  void retry_after_shed(std::uint32_t s, std::uint64_t seq);
  /// True while the circuit breaker for `s` is open (holding new issues).
  bool breaker_open(std::uint32_t s);
  /// A non-shed response from `s` closes its breaker; a shed feeds it.
  void breaker_on_shed(std::uint32_t s);
  /// Re-issues ops held back by an open breaker (scheduled at cooldown
  /// expiry; ops whose target is still open are re-held).
  void resume_held();

  bool failover_enabled() const {
    return res_.failover_threshold > 0 && cfg_.n_server_procs > 1;
  }
  /// Server process a new request for `shard` (whose mapped primary is `p`)
  /// should address, honoring suspected-dead state and periodic probing.
  std::uint32_t route(std::uint32_t p, std::uint32_t shard);
  /// First process other than `s` not currently suspected (s if none).
  std::uint32_t pick_backup(std::uint32_t s) const;
  /// Where to re-send an in-flight request when `s` is suspected dead. In
  /// replicated mode only the shard's own primary/backup can serve the key,
  /// so the shard map decides; otherwise any survivor does (pick_backup).
  std::uint32_t failover_target(const InFlight& fl, std::uint32_t s) const;
  /// Moves every outstanding request off suspected-dead process `s`.
  void fail_over_outstanding(std::uint32_t s);
  /// `stage` names both the tracer instant and the tail stage the elapsed
  /// wait is charged to ("redirect_rtt" / "failover_wait").
  void reissue(InFlight fl, std::uint32_t to,
               std::string_view stage = "failover_wait");
  /// The one re-send path (timer retry, shed retry, reissue): marks the hop
  /// — tracer event `event`, tail stage `stage`, detail `args` — and
  /// re-posts `fl` to fl.target after the compose + post cost.
  /// `recv_credit` first posts a RECV on the target's UD QP, for a request
  /// moved off the QP its issue-time credit sits on.
  template <typename Args>
  void resend(const InFlight& fl, std::string_view event,
              std::string_view stage, bool recv_credit, Args&& args);
  void repost_recv(std::uint32_t s, std::uint64_t buf);

  cluster::Host* host_;
  std::uint32_t id_;
  HerdService* service_;
  HerdConfig cfg_;
  cluster::CpuModel cpu_;
  workload::WorkloadGenerator wl_;
  cluster::SequentialCore core_;

  std::unique_ptr<verbs::Cq> send_cq_;
  std::unique_ptr<verbs::Cq> recv_cq_;
  std::unique_ptr<verbs::Qp> uc_qp_;                 // WRITE mode
  std::vector<std::unique_ptr<verbs::Qp>> ud_qps_;   // one per server proc
  std::vector<std::uint32_t> qpn_to_proc_;           // response demux

  verbs::Mr arena_mr_{};
  std::uint64_t req_base_ = 0;   // staging ring for requests
  std::uint32_t req_slot_ = 0;
  std::uint64_t resp_base_ = 0;  // RECV buffers: [proc][window slot]
  std::vector<std::uint32_t> recv_slot_;  // per-proc ring cursor
  std::vector<std::uint64_t> next_r_;     // per-proc request counter

  /// The client's copy of the server's shard map: every request routes
  /// through it (an identity map when replication is off). Refreshed from
  /// kWrongEpoch redirect payloads — never by guessing.
  ShardMap shards_;
  std::vector<std::deque<InFlight>> inflight_;  // per target proc, FIFO
  std::uint64_t next_seq_ = 1;
  ClientResilience res_;
  sim::Pcg32 jitter_rng_;
  std::vector<std::uint32_t> consecutive_timeouts_;  // per proc
  std::vector<char> proc_down_;                      // suspected dead
  std::vector<sim::Tick> last_probe_;
  // Per-server circuit breaker (overload mode; see ClientResilience).
  std::vector<std::uint32_t> consecutive_sheds_;  // per proc
  /// 0 = closed. Otherwise: open until this tick, then half-open (issues
  /// pass as probes) until a response settles it — a shed re-opens, any
  /// other response closes.
  std::vector<sim::Tick> breaker_until_;
  /// Ops generated while their target's breaker was open, waiting for the
  /// cooldown. Bounded by the client's window (each held op keeps its
  /// outstanding_ slot).
  std::deque<workload::Op> held_ops_;
  bool resume_scheduled_ = false;
  std::uint32_t outstanding_ = 0;
  bool running_ = false;
  bool verify_ = false;
  HistoryObserver* observer_ = nullptr;
  Stats stats_;
  sim::LatencyHistogram latency_;
  /// True while one of this client's requests holds a tracer sampling
  /// window open. The client is the sampling driver: it offers a request
  /// to the sampler only when none of its own is sampled, so every
  /// downstream layer records while the sampled one is in flight, and the
  /// window closes when that request reaches a terminal state.
  bool sampling_ = false;
};

}  // namespace herd::core
