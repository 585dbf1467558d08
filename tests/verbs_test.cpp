// Unit + property tests for the verbs layer: transport legality (Table 1),
// data movement correctness, completion semantics, memory protection, RNR
// behavior, READ flow control, inline semantics.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/core.hpp"
#include "sim/zeroed_bytes.hpp"
#include "verbs/verbs.hpp"

namespace herd::verbs {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest() : cl_(cluster::ClusterConfig::apt(), 3, 1u << 20) {}

  struct Endpoint {
    std::unique_ptr<Cq> scq;
    std::unique_ptr<Cq> rcq;
    std::unique_ptr<Qp> qp;
    Mr mr{};
  };

  Endpoint make(std::size_t host, Transport tr, bool remote_access = true) {
    Endpoint e;
    auto& ctx = cl_.host(host).ctx();
    e.scq = ctx.create_cq();
    e.rcq = ctx.create_cq();
    e.qp = ctx.create_qp({tr, e.scq.get(), e.rcq.get()});
    e.mr = ctx.register_mr(
        0, 64 << 10,
        {.remote_write = remote_access, .remote_read = remote_access});
    return e;
  }

  std::span<std::byte> mem(std::size_t host, std::uint64_t addr,
                           std::uint32_t len) {
    return cl_.host(host).memory().span(addr, len);
  }

  void fill(std::size_t host, std::uint64_t addr, std::uint32_t len,
            std::uint8_t seed) {
    auto m = mem(host, addr, len);
    for (std::uint32_t i = 0; i < len; ++i) {
      m[i] = static_cast<std::byte>(seed + i);
    }
  }

  bool matches(std::size_t host, std::uint64_t addr, std::uint32_t len,
               std::uint8_t seed) {
    auto m = mem(host, addr, len);
    for (std::uint32_t i = 0; i < len; ++i) {
      if (m[i] != static_cast<std::byte>(seed + i)) return false;
    }
    return true;
  }

  std::optional<Wc> poll_one(Cq& cq) {
    Wc wc;
    if (cq.poll({&wc, 1}) == 1) return wc;
    return std::nullopt;
  }

  cluster::Cluster cl_;
};

// ---------------------------------------------------------------------------
// Table 1 legality, as a parameterized sweep.

struct LegalityCase {
  Transport tr;
  Opcode op;
  bool legal;
};

class Table1Test : public VerbsTest,
                   public ::testing::WithParamInterface<LegalityCase> {};

TEST_P(Table1Test, EnforcesTable1) {
  auto [tr, op, legal] = GetParam();
  auto a = make(0, tr);
  auto b = make(1, tr);
  if (tr != Transport::kUd) a.qp->connect(*b.qp);
  b.qp->post_recv({.wr_id = 9, .sge = {4096, 8192, b.mr.lkey}});

  SendWr wr;
  wr.opcode = op;
  wr.sge = {0, 32, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  if (tr == Transport::kUd) {
    wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  }
  if (legal) {
    EXPECT_NO_THROW(a.qp->post_send(wr));
    cl_.engine().run();
  } else {
    EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, Table1Test,
    ::testing::Values(
        LegalityCase{Transport::kRc, Opcode::kSend, true},
        LegalityCase{Transport::kRc, Opcode::kWrite, true},
        LegalityCase{Transport::kRc, Opcode::kRead, true},
        LegalityCase{Transport::kUc, Opcode::kSend, true},
        LegalityCase{Transport::kUc, Opcode::kWrite, true},
        LegalityCase{Transport::kUc, Opcode::kRead, false},
        LegalityCase{Transport::kUd, Opcode::kSend, true},
        LegalityCase{Transport::kUd, Opcode::kWrite, false},
        LegalityCase{Transport::kUd, Opcode::kRead, false}));

// ---------------------------------------------------------------------------
// Connection management.

TEST_F(VerbsTest, ConnectRejectsUd) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  EXPECT_THROW(a.qp->connect(*b.qp), std::logic_error);
}

TEST_F(VerbsTest, ConnectRejectsTransportMismatch) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kUc);
  EXPECT_THROW(a.qp->connect(*b.qp), std::logic_error);
}

TEST_F(VerbsTest, ConnectRejectsDoubleConnect) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  auto c = make(2, Transport::kRc);
  a.qp->connect(*b.qp);
  EXPECT_THROW(a.qp->connect(*c.qp), std::logic_error);
  EXPECT_THROW(c.qp->connect(*b.qp), std::logic_error);
  // Re-connecting the same pair is idempotent.
  EXPECT_NO_THROW(a.qp->connect(*b.qp));
}

TEST_F(VerbsTest, UnconnectedPostSendThrows) {
  auto a = make(0, Transport::kRc);
  SendWr wr;
  wr.sge = {0, 8, a.mr.lkey};
  EXPECT_THROW(a.qp->post_send(wr), std::logic_error);
}

TEST_F(VerbsTest, UdSendWithoutAhThrows) {
  auto a = make(0, Transport::kUd);
  SendWr wr;
  wr.sge = {0, 8, a.mr.lkey};
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
}

TEST_F(VerbsTest, QpRequiresCqs) {
  EXPECT_THROW(cl_.host(0).ctx().create_qp({Transport::kRc, nullptr, nullptr}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Data movement.

TEST_F(VerbsTest, WriteMovesBytes) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(0, 100, 256, 7);

  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {100, 256, a.mr.lkey};
  wr.remote_addr = 5000;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 5000, 256, 7));
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kSuccess);
  EXPECT_EQ(wc->opcode, WcOpcode::kWrite);
}

TEST_F(VerbsTest, ReadFetchesRemoteBytes) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(1, 3000, 512, 42);

  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.wr_id = 77;
  wr.sge = {200, 512, a.mr.lkey};
  wr.remote_addr = 3000;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(0, 200, 512, 42));
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 77u);
  EXPECT_EQ(wc->opcode, WcOpcode::kRead);
}

TEST_F(VerbsTest, SendRecvDeliversPayloadAndCompletions) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(0, 0, 128, 9);
  b.qp->post_recv({.wr_id = 55, .sge = {9000, 1024, b.mr.lkey}});

  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.wr_id = 56;
  wr.sge = {0, 128, a.mr.lkey};
  a.qp->post_send(wr);
  cl_.engine().run();

  EXPECT_TRUE(matches(1, 9000, 128, 9));  // no GRH on connected transport
  auto rwc = poll_one(*b.rcq);
  ASSERT_TRUE(rwc.has_value());
  EXPECT_EQ(rwc->wr_id, 55u);
  EXPECT_EQ(rwc->opcode, WcOpcode::kRecv);
  EXPECT_EQ(rwc->byte_len, 128u);
  auto swc = poll_one(*a.scq);
  ASSERT_TRUE(swc.has_value());
  EXPECT_EQ(swc->wr_id, 56u);
}

TEST_F(VerbsTest, UdSendPrependsGrh) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  fill(0, 0, 64, 3);
  b.qp->post_recv({.wr_id = 1, .sge = {2000, 1024, b.mr.lkey}});

  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 64, a.mr.lkey};
  wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  a.qp->post_send(wr);
  cl_.engine().run();

  auto wc = poll_one(*b.rcq);
  ASSERT_TRUE(wc.has_value());
  // byte_len includes the 40-byte GRH, payload lands at offset 40 (ibverbs
  // UD semantics).
  EXPECT_EQ(wc->byte_len, 64u + kGrhBytes);
  EXPECT_TRUE(matches(1, 2000 + kGrhBytes, 64, 3));
  EXPECT_EQ(wc->src_qp, a.qp->qpn());
  EXPECT_EQ(wc->src_port, cl_.host(0).port());
}

TEST_F(VerbsTest, InlinePayloadCapturedAtPostTime) {
  // The defining inline property: the buffer is reusable immediately after
  // post_send returns. HERD's clients depend on it.
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  fill(0, 0, 64, 10);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 64, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  a.qp->post_send(wr);
  fill(0, 0, 64, 200);  // clobber the source immediately
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 0, 64, 10));  // original bytes arrived
}

TEST_F(VerbsTest, NonInlinePayloadSampledAtDmaTime) {
  // Without inlining the device fetches the buffer later; an immediate
  // overwrite races the DMA and the *new* bytes go out. This mirrors real
  // verbs semantics (the buffer must stay stable until completion).
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  fill(0, 0, 64, 10);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 64, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = false;
  a.qp->post_send(wr);
  fill(0, 0, 64, 200);  // clobber before the DMA read fires
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 0, 64, 200));
}

class PayloadSizeTest : public VerbsTest,
                        public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(PayloadSizeTest, WriteRoundTripsAllSizes) {
  std::uint32_t len = GetParam();
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(0, 0, len, 91);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, len, a.mr.lkey};
  wr.remote_addr = 1024;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 1024, len, 91));
}

TEST_P(PayloadSizeTest, ReadRoundTripsAllSizes) {
  std::uint32_t len = GetParam();
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  fill(1, 0, len, 17);
  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.sge = {2048, len, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_TRUE(matches(0, 2048, len, 17));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizeTest,
                         ::testing::Values(1, 4, 16, 28, 29, 64, 100, 256,
                                           257, 1000, 1024, 4096, 8192));

// ---------------------------------------------------------------------------
// Signaling.

TEST_F(VerbsTest, UnsignaledVerbsProduceNoCqe) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.signaled = false;
  wr.inline_data = true;
  for (int i = 0; i < 10; ++i) a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_FALSE(poll_one(*a.scq).has_value());
  EXPECT_EQ(cl_.host(1).rnic().counters().rx_ops, 10u);  // they did arrive
}

TEST_F(VerbsTest, SelectiveSignalingDeliversOnlyMarkedCqes) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 16, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  for (int i = 0; i < 16; ++i) {
    wr.wr_id = i;
    wr.signaled = (i % 4 == 3);
    a.qp->post_send(wr);
  }
  cl_.engine().run();
  int cqes = 0;
  while (auto wc = poll_one(*a.scq)) {
    EXPECT_EQ(wc->wr_id % 4, 3u);
    ++cqes;
  }
  EXPECT_EQ(cqes, 4);
}

TEST_F(VerbsTest, CqNotifyFiresOnPush) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  int notified = 0;
  a.scq->set_notify([&] { ++notified; });
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(notified, 1);
}

// ---------------------------------------------------------------------------
// Memory protection.

TEST_F(VerbsTest, WriteWithBadRkeyErrorsOnRc) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = 0xdead;
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(cl_.host(1).rnic().counters().access_errors, 1u);
}

TEST_F(VerbsTest, WriteWithBadRkeySilentlyDropsOnUc) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = 0xdead;
  wr.signaled = false;
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(cl_.host(1).rnic().counters().access_errors, 1u);
  EXPECT_EQ(cl_.host(1).rnic().counters().dropped_packets, 1u);
}

TEST_F(VerbsTest, WriteOutOfBoundsErrors) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 4096, a.mr.lkey};
  wr.remote_addr = (64 << 10) - 100;  // escapes the 64 KiB MR
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
}

TEST_F(VerbsTest, ReadRequiresRemoteReadPermission) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc, /*remote_access=*/false);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kRead;
  wr.sge = {0, 8, a.mr.lkey};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRemoteAccessError);
}

TEST_F(VerbsTest, LocalLkeyValidatedAtPostTime) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 8, 0xbeef};
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
}

TEST_F(VerbsTest, InlineOverLimitThrows) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kWrite;
  wr.sge = {0, 257, a.mr.lkey};  // max_inline is 256
  wr.remote_addr = 0;
  wr.rkey = b.mr.rkey;
  wr.inline_data = true;
  EXPECT_THROW(a.qp->post_send(wr), std::invalid_argument);
}

TEST_F(VerbsTest, RegisterMrOutOfHostMemoryThrows) {
  EXPECT_THROW(
      cl_.host(0).ctx().register_mr((1u << 20) - 16, 64, {}),
      std::out_of_range);
}

// ---------------------------------------------------------------------------
// RNR (no RECV posted).

TEST_F(VerbsTest, RnrOnRcFailsRequester) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 16, a.mr.lkey};
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kRnrRetryExceeded);
  EXPECT_EQ(cl_.host(1).rnic().counters().rnr_drops, 1u);
}

TEST_F(VerbsTest, RnrOnUdSilentlyDrops) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 16, a.mr.lkey};
  wr.signaled = false;
  wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(cl_.host(1).rnic().counters().rnr_drops, 1u);
  EXPECT_FALSE(poll_one(*b.rcq).has_value());
}

TEST_F(VerbsTest, UdSendToUnknownQpnDropped) {
  auto a = make(0, Transport::kUd);
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 16, a.mr.lkey};
  wr.signaled = false;
  wr.ah = Ah{&cl_.host(1).ctx(), 424242};
  a.qp->post_send(wr);
  cl_.engine().run();
  EXPECT_EQ(cl_.host(1).rnic().counters().dropped_packets, 1u);
}

TEST_F(VerbsTest, RecvBufferTooSmallCompletesWithError) {
  auto a = make(0, Transport::kUd);
  auto b = make(1, Transport::kUd);
  // UD: a 100-byte payload needs 140 bytes (GRH); give it 64.
  b.qp->post_recv({.wr_id = 4, .sge = {0, 64, b.mr.lkey}});
  SendWr wr;
  wr.opcode = Opcode::kSend;
  wr.sge = {0, 100, a.mr.lkey};
  wr.signaled = false;
  wr.ah = Ah{&cl_.host(1).ctx(), b.qp->qpn()};
  a.qp->post_send(wr);
  cl_.engine().run();
  auto wc = poll_one(*b.rcq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::kLocalLengthError);
}

// ---------------------------------------------------------------------------
// READ flow control.

TEST_F(VerbsTest, OutstandingReadsLimitedButAllComplete) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  constexpr int kReads = 64;  // 4x the 16-outstanding limit
  for (int i = 0; i < kReads; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kRead;
    wr.wr_id = i;
    wr.sge = {static_cast<std::uint64_t>(i) * 64, 64, a.mr.lkey};
    wr.remote_addr = 0;
    wr.rkey = b.mr.rkey;
    a.qp->post_send(wr);
  }
  cl_.engine().run();
  int done = 0;
  while (poll_one(*a.scq)) ++done;
  EXPECT_EQ(done, kReads);
}

TEST_F(VerbsTest, RecvQueueIsFifo) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);
  for (int i = 0; i < 4; ++i) {
    b.qp->post_recv({.wr_id = static_cast<std::uint64_t>(i),
                     .sge = {static_cast<std::uint64_t>(i) * 1024, 1024,
                             b.mr.lkey}});
  }
  for (int i = 0; i < 4; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kSend;
    wr.sge = {0, 32, a.mr.lkey};
    wr.signaled = false;
    a.qp->post_send(wr);
  }
  cl_.engine().run();
  for (int i = 0; i < 4; ++i) {
    auto wc = poll_one(*b.rcq);
    ASSERT_TRUE(wc.has_value());
    EXPECT_EQ(wc->wr_id, static_cast<std::uint64_t>(i));
  }
}

TEST_F(VerbsTest, PostRecvValidatesBuffer) {
  auto b = make(1, Transport::kRc);
  EXPECT_THROW(b.qp->post_recv({.wr_id = 1, .sge = {0, 64, 0xbad}}),
               std::invalid_argument);
  EXPECT_THROW(b.qp->post_recv({.wr_id = 1, .sge = {0, 0, b.mr.lkey}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Doorbell/WQE batching: chained post_send.

TEST_F(VerbsTest, ChainDeliversEveryWrInOrder) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  std::vector<SendWr> chain(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    fill(0, i * 256, 64, static_cast<std::uint8_t>(0x10 * (i + 1)));
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {i * 256, 64, a.mr.lkey};
    chain[i].remote_addr = 4096 + i * 256;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = (i == 3);  // selective signaling: tail only
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(matches(1, 4096 + i * 256, 64,
                        static_cast<std::uint8_t>(0x10 * (i + 1))));
  }
  auto wc = poll_one(*a.scq);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 3u);
  EXPECT_FALSE(poll_one(*a.scq).has_value());  // the rest were unsignaled
}

TEST_F(VerbsTest, ChainSameAddressLastWriterWins) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);

  fill(0, 0, 32, 0xA0);
  fill(0, 1024, 32, 0xB0);
  std::vector<SendWr> chain(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {i * 1024, 32, a.mr.lkey};
    chain[i].remote_addr = 8192;  // both target the same remote slot
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = (i == 1);
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();
  // SQ FIFO: position 1 executes after position 0.
  EXPECT_TRUE(matches(1, 8192, 32, 0xB0));
}

TEST_F(VerbsTest, ChainRingsOneDoorbellAndFetchesTheRest) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const auto& rc = cl_.host(0).rnic().counters();
  const std::uint64_t db0 = pc.doorbells;
  const std::uint64_t wf0 = rc.wqe_fetches;

  std::vector<SendWr> chain(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {0, 32, a.mr.lkey};
    chain[i].remote_addr = 4096;
    chain[i].rkey = b.mr.rkey;
    chain[i].inline_data = true;
    chain[i].signaled = false;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  EXPECT_EQ(pc.doorbells - db0, 1u);   // head of chain: one PIO doorbell
  EXPECT_EQ(rc.wqe_fetches - wf0, 3u); // tail WQEs pulled by DMA
}

TEST_F(VerbsTest, PerWrPostsRingPerWrDoorbells) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const auto& rc = cl_.host(0).rnic().counters();
  const std::uint64_t db0 = pc.doorbells;
  const std::uint64_t wf0 = rc.wqe_fetches;

  for (std::uint32_t i = 0; i < 4; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kWrite;
    wr.sge = {0, 32, a.mr.lkey};
    wr.remote_addr = 4096;
    wr.rkey = b.mr.rkey;
    wr.inline_data = true;
    wr.signaled = false;
    a.qp->post_send(wr);  // single-WR wrapper == chain of one
  }
  cl_.engine().run();

  EXPECT_EQ(pc.doorbells - db0, 4u);
  EXPECT_EQ(rc.wqe_fetches - wf0, 0u);
}

TEST_F(VerbsTest, ChainedNonInlinePayloadsArriveByDma) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const std::uint64_t dma0 = pc.dma_reads;

  std::vector<SendWr> chain(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    fill(0, i * 1024, 512, static_cast<std::uint8_t>(i + 1));
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = i;
    chain[i].sge = {i * 1024, 512, a.mr.lkey};  // 512 B: never inlined
    chain[i].remote_addr = 4096 + i * 1024;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = (i == 2);
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  // Each WR DMA-reads its payload; chained WQEs add their own fetches.
  EXPECT_GE(pc.dma_reads - dma0, 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(matches(1, 4096 + i * 1024, 512,
                        static_cast<std::uint8_t>(i + 1)));
  }
  ASSERT_TRUE(poll_one(*a.scq).has_value());
}

TEST_F(VerbsTest, ReadsNeverCoalesceDoorbells) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);

  const auto& pc = cl_.host(0).pcie().counters();
  const std::uint64_t db0 = pc.doorbells;

  std::vector<SendWr> chain(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    chain[i].opcode = Opcode::kRead;
    chain[i].wr_id = i;
    chain[i].sge = {i * 256, 64, a.mr.lkey};
    chain[i].remote_addr = 4096;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = true;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  EXPECT_EQ(pc.doorbells - db0, 2u);  // READs go through the read pipeline
  int done = 0;
  while (poll_one(*a.scq)) ++done;
  EXPECT_EQ(done, 2);
}

TEST_F(VerbsTest, ChainInvalidWrThrowsAfterLegalPrefix) {
  auto a = make(0, Transport::kUc);
  auto b = make(1, Transport::kUc);
  a.qp->connect(*b.qp);

  fill(0, 0, 32, 0x5A);
  std::vector<SendWr> chain(3);
  chain[0].opcode = Opcode::kWrite;
  chain[0].sge = {0, 32, a.mr.lkey};
  chain[0].remote_addr = 4096;
  chain[0].rkey = b.mr.rkey;
  chain[0].signaled = false;
  chain[1].opcode = Opcode::kWrite;
  chain[1].sge = {0, 32, 0xbad};  // invalid lkey: rejected at this position
  chain[1].remote_addr = 4096;
  chain[1].rkey = b.mr.rkey;
  chain[2] = chain[0];
  chain[2].remote_addr = 8192;

  // ibv_post_send's bad_wr semantics: the legal prefix is on the wire, the
  // offending WR throws, the suffix is never posted.
  EXPECT_THROW(a.qp->post_send(std::span<const SendWr>(chain)),
               std::invalid_argument);
  cl_.engine().run();
  EXPECT_TRUE(matches(1, 4096, 32, 0x5A));    // prefix delivered
  EXPECT_FALSE(matches(1, 8192, 32, 0x5A));   // suffix never posted
}

TEST_F(VerbsTest, WidePollDrainsBatchedCompletionsInOrder) {
  auto a = make(0, Transport::kRc);
  auto b = make(1, Transport::kRc);
  a.qp->connect(*b.qp);

  std::vector<SendWr> chain(6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    chain[i].opcode = Opcode::kWrite;
    chain[i].wr_id = 100 + i;
    chain[i].sge = {0, 32, a.mr.lkey};
    chain[i].remote_addr = 4096 + i * 64;
    chain[i].rkey = b.mr.rkey;
    chain[i].signaled = true;
  }
  a.qp->post_send(std::span<const SendWr>(chain));
  cl_.engine().run();

  std::array<Wc, 4> wcs;
  std::size_t n = a.scq->poll(wcs);
  ASSERT_EQ(n, 4u);  // one wide poll drains up to span size, FIFO
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(wcs[i].wr_id, 100 + i);
  n = a.scq->poll(wcs);
  ASSERT_EQ(n, 2u);  // the remainder on the next sweep
  EXPECT_EQ(wcs[0].wr_id, 104u);
  EXPECT_EQ(wcs[1].wr_id, 105u);
}

// fig03's shape: 16 client machines keep 32-byte inline UC WRITEs in flight
// to one server, whose port saturates, so the pending backlog grows without
// bound. Every stream that backlog sits in is monotone (a FIFO resource's
// completions, or a send queue in post order), so the engine's in-order
// lanes must hold it: the heap stays at about one entry per lane while the
// pending events pass 10k, and no lane insert falls back to the heap.
TEST(VerbsLanes, SaturatedInboundPortBacklogStaysOutOfTheHeap) {
  constexpr std::uint32_t kClients = 16;
  constexpr std::uint32_t kWindow = 32;
  constexpr std::uint32_t kSignalEvery = 8;
  cluster::ClusterConfig cfg = cluster::ClusterConfig::apt();
  cluster::Cluster cl(cfg, 1 + kClients, 1u << 20);
  sim::Engine& eng = cl.engine();
  auto& server = cl.host(0);
  auto server_cq = server.ctx().create_cq();
  Mr smr = server.ctx().register_mr(0, 1u << 20, {.remote_write = true});

  struct Client {
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<Cq> scq;
    std::unique_ptr<Cq> rcq;
    std::unique_ptr<Qp> qp;
    std::unique_ptr<Qp> server_qp;
    SendWr wr;
    std::uint64_t posted = 0;
  };
  std::vector<Client> clients(kClients);
  auto post = [&cfg](Client& c, std::uint32_t n) {
    std::vector<SendWr> chain(n, c.wr);
    for (SendWr& w : chain) w.signaled = ++c.posted % kSignalEvery == 0;
    c.core->run(cfg.cpu.chained_post_cost(n), [&c, chain = std::move(chain)] {
      c.qp->post_send(std::span<const SendWr>(chain));
    });
  };
  for (std::uint32_t i = 0; i < kClients; ++i) {
    Client& c = clients[i];
    auto& ctx = cl.host(1 + i).ctx();
    c.core = std::make_unique<cluster::SequentialCore>(eng, "c");
    c.scq = ctx.create_cq();
    c.rcq = ctx.create_cq();
    Mr mr = ctx.register_mr(0, 8192, {});
    c.qp = ctx.create_qp({Transport::kUc, c.scq.get(), c.rcq.get()});
    c.server_qp = server.ctx().create_qp(
        {Transport::kUc, server_cq.get(), server_cq.get()});
    c.qp->connect(*c.server_qp);
    c.wr.opcode = Opcode::kWrite;
    c.wr.sge = {mr.addr, 32, mr.lkey};
    c.wr.remote_addr = smr.addr + std::uint64_t{i} * 4096;
    c.wr.rkey = smr.rkey;
    c.wr.inline_data = true;
    c.scq->set_notify([&c, &post] {
      std::array<Wc, 16> wcs;
      int n;
      while ((n = c.scq->poll(wcs)) > 0) {
        post(c, static_cast<std::uint32_t>(n) * kSignalEvery);
      }
    });
  }
  for (Client& c : clients) post(c, kWindow);

  std::size_t max_heap = 0;
  std::uint64_t pending = 0;
  while (pending <= 10000 && eng.now() < sim::ms(20)) {
    eng.run_until(eng.now() + sim::us(10));
    pending = eng.events_scheduled() - eng.events_processed();
    max_heap = std::max(max_heap, eng.heap_entries());
  }
  EXPECT_GT(pending, 10000u);
  EXPECT_LE(max_heap, 128u);  // 116 lanes here; no lanes: ~12k
  EXPECT_EQ(eng.lane_fallbacks(), 0u);
  EXPECT_EQ(server.rnic().counters().dropped_packets.value(), 0u);
}

std::size_t page_bytes() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

bool all_zero(const std::byte* p, std::size_t n) {
  return std::all_of(p, p + n, [](std::byte b) { return b == std::byte{0}; });
}

TEST(HostArena, FreshBufferReadsZeroAcrossPages) {
  // 3 pages + 1 byte: the last byte sits alone on a fourth page.
  const std::size_t n = 3 * page_bytes() + 1;
  sim::ZeroedBytes buf(n);
  ASSERT_EQ(buf.size(), n);
  EXPECT_TRUE(all_zero(buf.data(), n));
  EXPECT_EQ(buf.data()[page_bytes() - 1], std::byte{0});
  EXPECT_EQ(buf.data()[page_bytes()], std::byte{0});
  EXPECT_EQ(buf.data()[n - 1], std::byte{0});
}

TEST(HostArena, RebuiltBufferReadsZeroAgain) {
  // A buffer of the same size built after one was written and freed must
  // not hand back the old bytes (a recycled heap chunk would).
  const std::size_t n = 3 * page_bytes() + 1;
  {
    sim::ZeroedBytes buf(n);
    std::memset(buf.data(), 0xA5, n);
  }
  sim::ZeroedBytes again(n);
  EXPECT_TRUE(all_zero(again.data(), n));
}

TEST(HostArena, CopyOwnsFreshPages) {
  const std::size_t n = 2 * page_bytes();
  sim::ZeroedBytes a(n);
  a.data()[0] = std::byte{1};
  a.data()[n - 1] = std::byte{2};
  sim::ZeroedBytes b(a);
  ASSERT_EQ(b.size(), n);
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), n), 0);
  b.data()[0] = std::byte{9};
  EXPECT_EQ(a.data()[0], std::byte{1});
  EXPECT_EQ(sim::ZeroedBytes(0).data(), nullptr);
}

TEST(HostArena, HostMemoryKeepsItsBoundsChecks) {
  const std::size_t n = 3 * page_bytes() + 1;
  HostMemory mem(n);
  ASSERT_EQ(mem.size(), n);
  auto whole = mem.span(0, static_cast<std::uint32_t>(n));
  EXPECT_TRUE(all_zero(whole.data(), n));
  std::array<std::byte, 2> two{std::byte{7}, std::byte{8}};
  EXPECT_NO_THROW(mem.dma_apply(n - 2, two));
  EXPECT_EQ(mem.span(n - 1, 1)[0], std::byte{8});
  EXPECT_THROW(mem.span(n, 1), std::out_of_range);
  EXPECT_THROW(mem.span(n - 1, 2), std::out_of_range);
  EXPECT_THROW(mem.span(~std::uint64_t{0}, 2), std::out_of_range);
  EXPECT_THROW(mem.dma_apply(n - 1, two), std::out_of_range);
  EXPECT_THROW(mem.dma_apply(n, two), std::out_of_range);
}

}  // namespace
}  // namespace herd::verbs
