#include "herd/client.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace herd::core {

namespace {
constexpr std::uint32_t kReqRing = 16;  // request staging slots
constexpr std::uint32_t kRespStride =
    verbs::kGrhBytes + kRespHeader + kMaxValue + 13;  // 1056, 8-aligned
constexpr sim::Tick kComposeCost = sim::ns(20);
constexpr sim::Tick kParseCost = sim::ns(15);
}  // namespace

std::uint64_t HerdClient::arena_bytes(const HerdConfig& cfg) {
  return std::uint64_t{kReqRing} * kSlotBytes +
         std::uint64_t{cfg.n_server_procs} * cfg.window * kRespStride;
}

HerdClient::HerdClient(cluster::Host& host, std::uint32_t id,
                       HerdService& service,
                       const workload::WorkloadConfig& wl,
                       std::uint64_t mem_base)
    : host_(&host),
      id_(id),
      service_(&service),
      cfg_(service.config()),
      cpu_(service.cpu()),
      wl_(wl),
      core_(host.ctx().engine(),
            host.name() + "/client" + std::to_string(id)),
      jitter_rng_(wl.seed ^ 0xC11E47ULL, id) {
  auto& ctx = host.ctx();
  send_cq_ = ctx.create_cq();
  recv_cq_ = ctx.create_cq();

  req_base_ = mem_base;
  resp_base_ = mem_base + std::uint64_t{kReqRing} * kSlotBytes;
  arena_mr_ = ctx.register_mr(mem_base, arena_bytes(cfg_), {});

  if (cfg_.mode == RequestMode::kWriteUc) {
    uc_qp_ = ctx.create_qp({verbs::Transport::kUc, send_cq_.get(),
                            recv_cq_.get()});
    service.connect_client(id_, *uc_qp_);
  }

  ud_qps_.reserve(cfg_.n_server_procs);
  for (std::uint32_t s = 0; s < cfg_.n_server_procs; ++s) {
    ud_qps_.push_back(ctx.create_qp(
        {verbs::Transport::kUd, send_cq_.get(), recv_cq_.get()}));
    service.set_client_ah(id_, s, verbs::Ah{&ctx, ud_qps_[s]->qpn()});
    qpn_to_proc_.push_back(service.proc_ah(s).qpn);
  }

  // Copy the authoritative shard map (the out-of-band bootstrap a real
  // deployment does over TCP). Redirects keep it fresh from here on.
  shards_ = service.shards();

  recv_slot_.assign(cfg_.n_server_procs, 0);
  next_r_.assign(cfg_.n_server_procs, 0);
  inflight_.resize(cfg_.n_server_procs);
  consecutive_timeouts_.assign(cfg_.n_server_procs, 0);
  proc_down_.assign(cfg_.n_server_procs, 0);
  last_probe_.assign(cfg_.n_server_procs, 0);
  consecutive_sheds_.assign(cfg_.n_server_procs, 0);
  breaker_until_.assign(cfg_.n_server_procs, 0);

  recv_cq_->set_notify([this]() { on_response(); });
}

void HerdClient::set_resilience(const ClientResilience& r) {
  // Coupling rules (deadlines/failover need correlation tokens, failover
  // needs a second process, ...) are enforced by HerdConfigBuilder::validate
  // at config-build time, where the mistake is made — not here, where it
  // would surface long after.
  res_ = r;
}

void HerdClient::start() {
  running_ = true;
  pump();
}

void HerdClient::pump() {
  while (running_ && outstanding_ < cfg_.window) {
    workload::Op op = wl_.next();
    ++outstanding_;
    issue(op);
  }
}

void HerdClient::in_flight_traces(std::vector<obs::TraceCtx>& out) const {
  for (const std::deque<InFlight>& q : inflight_) {
    for (const InFlight& fl : q) {
      if (fl.trace.sampled()) out.push_back(fl.trace);
    }
  }
}

std::uint32_t HerdClient::pick_backup(std::uint32_t s) const {
  for (std::uint32_t i = 1; i < cfg_.n_server_procs; ++i) {
    std::uint32_t b = (s + i) % cfg_.n_server_procs;
    if (!proc_down_[b]) return b;
  }
  return s;  // everyone suspected: stay with the primary
}

std::uint32_t HerdClient::route(std::uint32_t p, std::uint32_t shard) {
  if (!failover_enabled() || !proc_down_[p]) return p;
  sim::Tick now = host_->ctx().engine().now();
  if (now - last_probe_[p] >= res_.probe_interval) {
    // Optimistically probe the suspected process; a response un-suspects it.
    last_probe_[p] = now;
    ++stats_.probes;
    return p;
  }
  if (cfg_.replicate) {
    // Only the shard's replica holders can serve the key: go to the backup
    // (it parks the request until the failure detector promotes it).
    std::uint32_t b = shards_.at(shard).backup;
    if (b != kNoBackup && !proc_down_[b]) return b;
    return p;
  }
  return pick_backup(p);
}

std::uint32_t HerdClient::failover_target(const InFlight& fl,
                                          std::uint32_t s) const {
  if (cfg_.replicate) {
    const ShardInfo& si = shards_.at(shards_.shard_of(fl.op.key));
    if (si.primary != s && !proc_down_[si.primary]) return si.primary;
    if (si.backup != kNoBackup && si.backup != s && !proc_down_[si.backup]) {
      return si.backup;
    }
    return s;
  }
  return pick_backup(s);
}

void HerdClient::issue(const workload::Op& op) {
  std::uint32_t shard = shards_.shard_of(op.key);
  std::uint32_t p = shards_.at(shard).primary;
  std::uint32_t s = route(p, shard);
  if (breaker_open(s)) {
    // The breaker for this process is open: stop hammering a saturated
    // server. The op keeps its window slot and re-issues at cooldown
    // expiry (resume_held), when the breaker goes half-open.
    ++stats_.breaker_held;
    held_ops_.push_back(op);
    if (!resume_scheduled_) {
      resume_scheduled_ = true;
      sim::Tick now = host_->ctx().engine().now();
      sim::Tick wait = breaker_until_[s] > now ? breaker_until_[s] - now : 1;
      host_->ctx().engine().schedule_after(wait, [this]() { resume_held(); });
    }
    return;
  }
  std::uint64_t r = next_r_[s]++;
  ++stats_.issued;

  sim::Tick cost = cpu_.post_recv + kComposeCost + cpu_.post_send;
  core_.run(cost, [this, op, s, r, cost]() {
    // 1. RECV for the response, on the s-th UD QP (§4.3).
    std::uint64_t rbuf = resp_base_ +
                         (std::uint64_t{s} * cfg_.window +
                          recv_slot_[s]++ % cfg_.window) *
                             kRespStride;
    ud_qps_[s]->post_recv(
        {.wr_id = rbuf, .sge = {rbuf, kRespStride, arena_mr_.lkey}});

    sim::Tick now = host_->ctx().engine().now();
    std::uint64_t seq = next_seq_++;
    obs::Tracer& tr = *host_->ctx().tracer();
    auto seq_args = [seq] { return "seq=" + std::to_string(seq); };
    // A sampled request keeps its window open (every layer records) and
    // its causal identity across every re-send, until a terminal state.
    obs::TraceCtx trace;
    if (!sampling_) {
      trace = tr.request_begin(core_.name(), now - cost,
                               (std::uint64_t{id_} << 32) | seq, seq_args);
      sampling_ = trace.sampled();
    }
    tr.hop_span(core_.name(), "client_post", now - cost, now, trace,
                "client_post", seq_args);
    if (observer_ != nullptr) observer_->on_invoke(id_, seq, op, now);
    InFlight fl;
    fl.sent = now;
    fl.deadline = res_.deadline > 0 ? now + res_.deadline : 0;
    fl.seq = seq;
    fl.r = r;
    fl.target = s;
    fl.posts = 1;
    fl.trace = trace;
    fl.op = op;
    sim::Tick deadline = fl.deadline;
    inflight_[s].push_back(fl);
    switch (op.type) {
      case workload::OpType::kPut:
        ++stats_.puts;
        break;
      case workload::OpType::kDelete:
        ++stats_.deletes;
        break;
      case workload::OpType::kGet:
        ++stats_.gets;
        break;
    }

    post_request(s, r, op, seq, deadline, trace);
    arm_timer(s, seq);
  });
}

bool HerdClient::breaker_open(std::uint32_t s) {
  if (res_.breaker_threshold == 0 || breaker_until_[s] == 0) return false;
  sim::Tick now = host_->ctx().engine().now();
  if (now < breaker_until_[s]) return true;
  // Cooldown expired: half-open. Let this issue through as a probe; the
  // breaker stays armed (breaker_until_ != 0) until a response settles it.
  ++stats_.breaker_probes;
  return false;
}

void HerdClient::breaker_on_shed(std::uint32_t s) {
  if (res_.breaker_threshold == 0) return;
  sim::Tick now = host_->ctx().engine().now();
  if (breaker_until_[s] != 0 && now >= breaker_until_[s]) {
    // A half-open probe was shed: the server is still saturated; re-open.
    breaker_until_[s] = now + std::max<sim::Tick>(1, res_.breaker_cooldown);
    ++stats_.breaker_opens;
    return;
  }
  if (breaker_until_[s] != 0) return;  // already open
  ++consecutive_sheds_[s];
  if (consecutive_sheds_[s] >= res_.breaker_threshold) {
    breaker_until_[s] = now + std::max<sim::Tick>(1, res_.breaker_cooldown);
    ++stats_.breaker_opens;
  }
}

void HerdClient::resume_held() {
  resume_scheduled_ = false;
  std::deque<workload::Op> held;
  held.swap(held_ops_);
  // issue() re-routes each op; ops whose target is still open re-hold
  // (and re-schedule the resume).
  while (!held.empty()) {
    workload::Op op = held.front();
    held.pop_front();
    issue(op);
  }
}

// Composes the request into a staging slot and ships it (steps 2-3 of §4.2;
// shared by first transmission, retries, and failover re-issues).
void HerdClient::post_request(std::uint32_t s, std::uint64_t r,
                              const workload::Op& op, std::uint64_t seq,
                              sim::Tick deadline, obs::TraceCtx trace) {
  auto& mem = host_->memory();
  std::uint64_t stage = req_base_ + (req_slot_++ % kReqRing) * kSlotBytes;
  auto slot = mem.span(stage, kSlotBytes);
  std::vector<std::byte> value;
  Request req;
  req.key = op.key;
  req.is_put = op.type == workload::OpType::kPut;
  req.is_delete = op.type == workload::OpType::kDelete;
  req.token = static_cast<std::uint32_t>(seq);
  if (cfg_.replicate) {
    // Stamp the believed shard epoch; retries re-encode, so a map refresh
    // between attempts is picked up automatically.
    req.epoch = static_cast<std::uint32_t>(
        shards_.at(shards_.shard_of(op.key)).epoch);
  }
  if (cfg_.overload.enable) {
    // Tenant id keys the server's per-tenant quota and DRR queue; the
    // absolute deadline lets it drop this attempt unserved once the client
    // will no longer accept the answer.
    req.tenant = static_cast<std::uint16_t>(id_ % cfg_.overload.n_tenants);
    req.deadline = deadline;
  }
  if (cfg_.trace) {
    // Every re-send re-encodes the SAME trace id: retries, redirects, and
    // failover re-sends are hops of one trace, not new traces.
    req.trace_id = trace.trace_id;
    req.parent_span = trace.parent;
  }
  if (req.is_put) {
    value.resize(op.value_len);
    workload::WorkloadGenerator::fill_value(op.rank, value);
    req.value = value;
  }
  std::uint32_t wire =
      request_wire_bytes(req.is_put ? op.value_len : 0, cfg_.request_tokens,
                         cfg_.replicate, cfg_.overload.enable, cfg_.trace);
  std::uint32_t start =
      encode_request(slot, req, cfg_.request_tokens, cfg_.replicate,
                     cfg_.overload.enable, cfg_.trace);

  const auto& cal = host_->rnic().cal();
  if (cfg_.mode == RequestMode::kWriteUc) {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {stage + start, wire, arena_mr_.lkey};
    wr.remote_addr =
        service_->region().slot_addr(s, id_, r) + (kSlotBytes - wire);
    wr.rkey = service_->region_mr().rkey;
    wr.inline_data = wire <= cal.max_inline;
    wr.signaled = false;
    wr.trace_id = req.trace_id;
    uc_qp_->post_send(wr);
  } else {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kSend;
    wr.sge = {stage + start, wire, arena_mr_.lkey};
    wr.inline_data = wire <= cal.max_inline;
    wr.signaled = false;
    wr.ah = service_->proc_ah(s);
    wr.trace_id = req.trace_id;
    ud_qps_[s]->post_send(wr);
  }
}

namespace {
// Largest backoff the double -> Tick conversion may produce. Far above any
// useful interval, far below 2^64 (where the cast would be UB).
constexpr double kMaxBackoff = 9.0e18;
}  // namespace

sim::Tick HerdClient::base_backoff(const ClientResilience& res,
                                   std::uint32_t attempt) {
  double cap = res.backoff_max > 0 ? static_cast<double>(res.backoff_max)
                                   : kMaxBackoff;
  cap = std::min(cap, kMaxBackoff);
  double m = std::max(1.0, res.backoff_multiplier);
  double t = static_cast<double>(res.retry_timeout);
  for (std::uint32_t k = 0; k < attempt && t < cap; ++k) t *= m;
  t = std::min(t, cap);
  return std::max<sim::Tick>(1, static_cast<sim::Tick>(t));
}

sim::Tick HerdClient::backoff_delay(std::uint32_t attempt) {
  double t = static_cast<double>(base_backoff(res_, attempt));
  if (res_.jitter > 0.0) {
    t *= 1.0 + res_.jitter * (2.0 * jitter_rng_.next_double() - 1.0);
  }
  t = std::min(t, kMaxBackoff);
  return std::max<sim::Tick>(1, static_cast<sim::Tick>(t));
}

// Arms the retry/deadline timer for the request `seq` outstanding at `s`.
// The timer is a no-op if the request is gone from that queue by the time
// it fires (completed, or moved by failover — the mover re-arms).
void HerdClient::arm_timer(std::uint32_t s, std::uint64_t seq) {
  std::uint32_t attempt = 0;
  sim::Tick delay = 0;
  const InFlight* op = nullptr;
  for (const InFlight& fl : inflight_[s]) {
    if (fl.seq == seq) {
      op = &fl;
      break;
    }
  }
  if (op != nullptr) attempt = op->attempt;
  if (res_.retry_timeout > 0) {
    delay = backoff_delay(attempt);
  }
  if (res_.deadline > 0 && op != nullptr) {
    sim::Tick now = host_->ctx().engine().now();
    sim::Tick remain = op->deadline > now ? op->deadline - now : 1;
    delay = delay == 0 ? remain : std::min(delay, remain);
  }
  if (delay == 0) return;  // neither retries nor deadlines configured
  // The armed attempt travels with the wakeup: a timer that fires after the
  // op advanced (a kOverloaded shed bumped the attempt and retry_after_shed
  // re-posted) is stale and must not post a duplicate.
  host_->ctx().engine().schedule_after(
      delay, [this, s, seq, attempt]() { on_timer(s, seq, attempt); });
}

template <typename Args>
void HerdClient::resend(const InFlight& fl, std::string_view event,
                        std::string_view stage, bool recv_credit,
                        Args&& args) {
  if (fl.trace.sampled()) {
    host_->ctx().tracer()->hop(core_.name(), event,
                               host_->ctx().engine().now(), fl.trace, stage,
                               args);
  }
  sim::Tick cost =
      (recv_credit ? cpu_.post_recv : 0) + kComposeCost + cpu_.post_send;
  core_.run(cost, [this, to = fl.target, r = fl.r, op = fl.op, seq = fl.seq,
                   deadline = fl.deadline, trace = fl.trace, recv_credit]() {
    if (recv_credit) {
      // The RECV credit posted at issue() time sits on the old target's
      // QP; the response now arrives on `to`'s UD QP, and a UD SEND with
      // no posted RECV is silently dropped (RNR). Post a credit there or
      // every response to this request is lost.
      repost_recv(to, resp_base_ + (std::uint64_t{to} * cfg_.window +
                                    recv_slot_[to]++ % cfg_.window) *
                                       kRespStride);
    }
    post_request(to, r, op, seq, deadline, trace);
  });
}

void HerdClient::on_timer(std::uint32_t s, std::uint64_t seq,
                          std::uint32_t armed_attempt) {
  auto it = inflight_[s].begin();
  for (; it != inflight_[s].end(); ++it) {
    if (it->seq == seq) break;
  }
  if (it == inflight_[s].end()) return;  // answered or moved elsewhere

  sim::Tick now = host_->ctx().engine().now();
  if (it->deadline > 0 && now >= it->deadline) {
    // Terminal state: the request failed its deadline. The slot frees and a
    // very late response will be dropped by its stale token. If every
    // posted attempt came back kOverloaded, the op provably never applied
    // anywhere (each shed is a per-attempt not-applied guarantee) — a
    // strictly stronger verdict than the usual maybe-applied.
    bool never_applied =
        cfg_.overload.enable && it->posts > 0 && it->sheds == it->posts;
    if (never_applied) ++stats_.shed_never_applied;
    if (observer_ != nullptr) {
      if (never_applied) {
        observer_->on_shed_final(id_, it->seq, now);
      } else {
        observer_->on_deadline(id_, it->seq, now);
      }
    }
    if (it->trace.sampled()) {
      host_->ctx().tracer()->request_end(
          core_.name(), "deadline_exceeded", now, it->trace,
          never_applied ? "shed_never_applied" : "deadline", "deadline_wait");
      sampling_ = false;
    }
    inflight_[s].erase(it);
    ++stats_.deadline_exceeded;
    assert(outstanding_ > 0);
    --outstanding_;
    pump();
    return;
  }
  if (it->attempt != armed_attempt) {
    // The op advanced since this wakeup was armed — a shed's retry-after
    // hold bumped the attempt, and retry_after_shed (re-)posted it. A retry
    // from this stale view would race the fresh post and arrive as a
    // duplicate; re-arm against the current attempt instead.
    arm_timer(s, seq);
    return;
  }
  if (it->hold_until > now) {
    // A kOverloaded retry-after hold is in force: retry_after_shed (already
    // scheduled at the hold's expiry) owns the re-post. Keep the deadline
    // watch armed and otherwise stand down.
    arm_timer(s, seq);
    return;
  }
  if (res_.retry_timeout == 0) {
    arm_timer(s, seq);  // deadline-only mode: keep waiting
    return;
  }
  if (!running_ && res_.deadline == 0) {
    return;  // measurement over and nothing bounds the wait: stop retrying
  }

  // An unanswered interval against `s` is evidence of failure.
  if (failover_enabled()) {
    ++consecutive_timeouts_[s];
    if (!proc_down_[s] &&
        consecutive_timeouts_[s] >= res_.failover_threshold) {
      proc_down_[s] = 1;
      last_probe_[s] = now;
      fail_over_outstanding(s);  // moves this request too, re-arming timers
      return;
    }
  }

  if (failover_enabled() && proc_down_[s]) {
    // The process was declared dead after this request was (re-)sent to it
    // (e.g. a probe that went unanswered): individually re-route.
    std::uint32_t b = failover_target(*it, s);
    if (b != s) {
      InFlight fl = *it;
      inflight_[s].erase(it);
      ++stats_.failovers;
      reissue(std::move(fl), b);
      return;
    }
  }

  ++it->attempt;
  ++it->posts;
  ++stats_.retries;
  // The silent interval since the last mark was spent waiting out the lost
  // attempt — charge it to the retry, not to whatever came before.
  resend(*it, "retry", "retry_wait", false, [attempt = it->attempt] {
    return "attempt=" + std::to_string(attempt);
  });
  arm_timer(s, seq);
}

// Re-targets one in-flight request to process `to`: allocates a fresh slot
// in `to`'s ring, re-WRITEs the request, and re-arms its timer. The backoff
// schedule restarts — the timeouts accrued against the dead process say
// nothing about the new target, and carrying them over would make the first
// loss on the healthy path cost a near-max backoff. The deadline (absolute)
// still bounds the request's total lifetime.
void HerdClient::reissue(InFlight fl, std::uint32_t to,
                         std::string_view stage) {
  fl.target = to;
  fl.r = next_r_[to]++;
  fl.attempt = 0;
  ++fl.posts;
  std::uint64_t seq = fl.seq;
  resend(fl, stage, stage, true, [to] { return "to=" + std::to_string(to); });
  inflight_[to].push_back(std::move(fl));
  arm_timer(to, seq);
}

void HerdClient::fail_over_outstanding(std::uint32_t s) {
  std::deque<InFlight> moved;
  moved.swap(inflight_[s]);
  for (InFlight& fl : moved) {
    std::uint32_t b = failover_target(fl, s);
    if (b == s) {
      // No survivor to fail over to; keep waiting on the primary.
      inflight_[s].push_back(std::move(fl));
      arm_timer(s, inflight_[s].back().seq);
      continue;
    }
    ++stats_.failovers;
    reissue(std::move(fl), b);
  }
}

void HerdClient::handle_shed(std::uint32_t s, InFlight fl, sim::Tick hint) {
  std::uint64_t seq = fl.seq;
  sim::Tick now = host_->ctx().engine().now();
  // The server's hint and the client's own backoff schedule both apply;
  // honor whichever is longer so a tiny hint can't defeat backoff.
  sim::Tick delay = std::max(hint, backoff_delay(fl.attempt));
  ++fl.attempt;
  fl.hold_until = now + delay;
  inflight_[s].push_back(std::move(fl));
  host_->ctx().engine().schedule_after(
      delay, [this, s, seq]() { retry_after_shed(s, seq); });
}

void HerdClient::retry_after_shed(std::uint32_t s, std::uint64_t seq) {
  auto it = inflight_[s].begin();
  for (; it != inflight_[s].end(); ++it) {
    if (it->seq == seq) break;
  }
  if (it == inflight_[s].end()) return;  // retired or moved meanwhile
  sim::Tick now = host_->ctx().engine().now();
  if (it->deadline > 0 && now >= it->deadline) {
    return;  // past its deadline: the armed timer retires it, don't re-post
  }
  it->hold_until = 0;
  ++it->posts;
  ++stats_.retries;
  // Time parked waiting out the server's retry-after hint.
  resend(*it, "shed_retry", "backoff_hold", false, obs::NoArgs{});
}

void HerdClient::repost_recv(std::uint32_t s, std::uint64_t buf) {
  ud_qps_[s]->post_recv(
      {.wr_id = buf, .sge = {buf, kRespStride, arena_mr_.lkey}});
}

void HerdClient::on_response() {
  // Batched CQ reaping: one wide poll drains up to 16 completions for a
  // single cq_poll charge; parsing stays per response.
  std::array<verbs::Wc, 16> wcs;
  std::size_t n;
  while ((n = recv_cq_->poll(wcs)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      verbs::Wc wc = wcs[i];
      sim::Tick cost = (i == 0 ? cpu_.cq_poll : 0) + kParseCost;
      core_.run(cost, [this, wc]() { handle_response(wc); });
    }
  }
}

void HerdClient::handle_response(const verbs::Wc& wc) {
  if (wc.status != verbs::WcStatus::kSuccess) {
    ++stats_.bad_responses;
    return;
  }
  // Which server process replied? Responses carry the sender's UD QPN.
  std::uint32_t s = UINT32_MAX;
  for (std::uint32_t i = 0; i < qpn_to_proc_.size(); ++i) {
    if (qpn_to_proc_[i] == wc.src_qp) {
      s = i;
      break;
    }
  }
  if (s == UINT32_MAX) {
    ++stats_.bad_responses;
    return;
  }
  // Any response from `s` is proof of life: clear failure suspicion.
  if (failover_enabled()) {
    consecutive_timeouts_[s] = 0;
    proc_down_[s] = 0;
  }
  auto buf = host_->memory().span(
      wc.wr_id + verbs::kGrhBytes, wc.byte_len - verbs::kGrhBytes);
  auto resp = decode_response(buf, cfg_.request_tokens);

  // Match the response to its request: FIFO per (client, proc) on a
  // lossless fabric; by correlation token when tokens are enabled (a lost
  // request can let a later one overtake it, §2.2.3's retry caveat).
  InFlight fl;
  if (cfg_.request_tokens) {
    if (!resp) {
      ++stats_.bad_responses;
      repost_recv(s, wc.wr_id);
      return;
    }
    auto it = inflight_[s].begin();
    for (; it != inflight_[s].end(); ++it) {
      if (static_cast<std::uint32_t>(it->seq) == resp->token) break;
    }
    if (it == inflight_[s].end()) {
      // Response to an already-retired request (a retry raced the original,
      // or it moved to another proc / hit its deadline). Drop it and re-arm
      // the consumed RECV so real responses keep their credits.
      ++stats_.duplicate_responses;
      repost_recv(s, wc.wr_id);
      return;
    }
    fl = *it;
    inflight_[s].erase(it);
  } else {
    if (inflight_[s].empty()) {
      ++stats_.bad_responses;
      return;
    }
    fl = inflight_[s].front();
    inflight_[s].pop_front();
  }
  if (cfg_.overload.enable && resp &&
      resp->status == RespStatus::kOverloaded) {
    // Admission control refused this attempt before any state change: not
    // an outcome. Re-arm the consumed RECV credit, feed the breaker, and
    // re-post after the server's retry-after hint — the request stays
    // outstanding and its deadline keeps running.
    repost_recv(s, wc.wr_id);
    ++stats_.overload_sheds;
    ++fl.sheds;
    if (fl.trace.sampled()) {
      // The shed reply's flight back to us since the server's last mark.
      host_->ctx().tracer()->hop(core_.name(), "overload_shed",
                                 host_->ctx().engine().now(), fl.trace,
                                 "net_out");
    }
    breaker_on_shed(s);
    sim::Tick hint = 0;
    if (auto ra = decode_retry_after(resp->value)) {
      hint = static_cast<sim::Tick>(ra->ticks);
    }
    handle_shed(s, std::move(fl), hint);
    return;
  }
  // Any non-shed response from `s` shows it is serving again: reset the
  // breaker's shed streak and close it if open.
  if (res_.breaker_threshold > 0) {
    consecutive_sheds_[s] = 0;
    breaker_until_[s] = 0;
  }
  if (cfg_.replicate && resp && resp->status == RespStatus::kWrongEpoch) {
    // Our shard map is stale (a promotion or migration moved the shard).
    // Refresh from the redirect payload and re-issue — this is routing, not
    // an outcome: no observer event, no completion, the request stays
    // outstanding and its deadline keeps running.
    ++stats_.stale_epoch_retries;
    std::uint32_t shard = shards_.shard_of(fl.op.key);
    auto rd = decode_redirect(resp->value);
    if (rd && shards_.refresh(shard, rd->primary, rd->epoch)) {
      ++stats_.map_refreshes;
    }
    std::uint32_t p = shards_.at(shard).primary;
    reissue(std::move(fl), route(p, shard), "redirect_rtt");
    return;
  }
  bool is_get = fl.op.type == workload::OpType::kGet;
  if (observer_ != nullptr && resp) {
    observer_->on_response(id_, fl.seq, resp->status, resp->value,
                           host_->ctx().engine().now());
  }

  if (!resp) {
    ++stats_.bad_responses;
  } else if (is_get) {
    if (resp->status == RespStatus::kOk) {
      ++stats_.get_hits;
      if (verify_) {
        std::vector<std::byte> expect(resp->value.size());
        workload::WorkloadGenerator::fill_value(fl.op.rank, expect);
        if (!std::equal(expect.begin(), expect.end(),
                        resp->value.begin())) {
          ++stats_.value_mismatches;
        }
      }
    } else {
      ++stats_.get_misses;
    }
  }
  ++stats_.completed;
  sim::Tick done = host_->ctx().engine().now();
  latency_.record(done - fl.sent);
  if (fl.trace.sampled()) {
    host_->ctx().tracer()->request_end(
        core_.name(), {}, done, fl.trace, "ok", "net_out",
        [seq = fl.seq] { return "seq=" + std::to_string(seq); });
    sampling_ = false;
  }
  assert(outstanding_ > 0);
  --outstanding_;
  pump();
}

}  // namespace herd::core
