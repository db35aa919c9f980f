// Unit tests for src/common: PRNG, aligned buffers, blocking queue.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "common/aligned_buffer.hpp"
#include "common/blocking_queue.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"

namespace elrec {
namespace {

TEST(Prng, DeterministicFromSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, UniformRangeRespectsBounds) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Prng, UniformIndexCoversRangeWithoutBias) {
  Prng rng(11);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 10 * 0.15);
  }
}

TEST(Prng, NormalMomentsApproximatelyStandard) {
  Prng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Prng, BernoulliRate) {
  Prng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Prng, SplitStreamsAreIndependent) {
  Prng parent(5);
  Prng c1 = parent.split();
  Prng c2 = parent.split();
  EXPECT_NE(c1.next(), c2.next());
}

TEST(Shuffle, ProducesPermutation) {
  Prng rng(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(v, rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    ELREC_CHECK(false, "context info");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context info"), std::string::npos);
  }
}

TEST(Error, CheckPassesQuietly) {
  EXPECT_NO_THROW(ELREC_CHECK(1 + 1 == 2));
}

TEST(AlignedBuffer, IsCacheLineAligned) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
}

TEST(AlignedBuffer, ZeroInitialised) {
  AlignedBuffer<float> buf(1000);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, ResizeWithinCapacityKeepsAllocationAndZeroes) {
  AlignedBuffer<float> buf(64 * 16);
  const float* first = buf.data();
  buf.fill(5.0f);
  buf.resize(64 * 16);  // same shape
  EXPECT_EQ(buf.data(), first);
  for (std::size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf[i], 0.0f);
  buf.fill(7.0f);
  buf.resize(10);  // smaller
  EXPECT_EQ(buf.data(), first);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.capacity(), 64u * 16u);
  for (std::size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf[i], 0.0f);
  buf.resize(64 * 16 + 1);  // beyond the capacity: a fresh zeroed block
  EXPECT_EQ(buf.size(), 64u * 16u + 1u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, CopyAndMoveSemantics) {
  AlignedBuffer<int> a(10);
  for (std::size_t i = 0; i < 10; ++i) a[i] = static_cast<int>(i);
  AlignedBuffer<int> b = a;  // copy
  EXPECT_EQ(b[7], 7);
  AlignedBuffer<int> c = std::move(a);  // move
  EXPECT_EQ(c[7], 7);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move) — intentional
  b = b;                    // self-assignment is a no-op
  EXPECT_EQ(b[3], 3);
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, BlocksWhenFullUntilConsumed) {
  BlockingQueue<int> q(1);
  q.push(1);
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.push(2);
    second_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BlockingQueue, CloseWakesConsumers) {
  BlockingQueue<int> q(2);
  std::optional<int> result = std::make_optional(99);
  std::thread consumer([&] { result = q.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
  EXPECT_FALSE(result.has_value());
}

TEST(BlockingQueue, PushAfterCloseFails) {
  BlockingQueue<int> q(2);
  q.close();
  EXPECT_FALSE(q.push(1));
}

TEST(BlockingQueue, DrainAfterClose) {
  BlockingQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, ManyProducersManyConsumers) {
  BlockingQueue<int> q(8);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> total{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) total += *v;
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  const long expected =
      static_cast<long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2;
  EXPECT_EQ(total.load(), expected);
}

TEST(BlockingQueue, TryPopForTimesOutOnEmpty) {
  BlockingQueue<int> q(2);
  int out = -1;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.try_pop_for(out, std::chrono::milliseconds(20)),
            QueueOpStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
  EXPECT_EQ(out, -1);
}

TEST(BlockingQueue, TryPushForTimesOutWhenFullWithoutConsumingValue) {
  BlockingQueue<std::unique_ptr<int>> q(1);
  auto first = std::make_unique<int>(1);
  ASSERT_EQ(q.try_push_for(first, std::chrono::milliseconds(10)),
            QueueOpStatus::kOk);
  EXPECT_EQ(first, nullptr);  // transferred

  auto second = std::make_unique<int>(2);
  EXPECT_EQ(q.try_push_for(second, std::chrono::milliseconds(20)),
            QueueOpStatus::kTimeout);
  // The value must survive a timeout so the caller can retry it.
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 2);

  std::unique_ptr<int> out;
  ASSERT_EQ(q.try_pop_for(out, std::chrono::milliseconds(10)),
            QueueOpStatus::kOk);
  EXPECT_EQ(*out, 1);
  EXPECT_EQ(q.try_push_for(second, std::chrono::milliseconds(10)),
            QueueOpStatus::kOk);
}

TEST(BlockingQueue, TryPushForOnClosedQueueReturnsClosed) {
  BlockingQueue<int> q(2);
  q.close();
  int v = 7;
  EXPECT_EQ(q.try_push_for(v, std::chrono::milliseconds(10)),
            QueueOpStatus::kClosed);
}

TEST(BlockingQueue, TryPopForReportsClosedOnlyAfterDrain) {
  BlockingQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  int out = 0;
  EXPECT_EQ(q.try_pop_for(out, std::chrono::milliseconds(10)),
            QueueOpStatus::kOk);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.try_pop_for(out, std::chrono::milliseconds(10)),
            QueueOpStatus::kOk);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.try_pop_for(out, std::chrono::milliseconds(10)),
            QueueOpStatus::kClosed);
}

// Poison-pill shutdown race: consumers sit in long try_pop_for waits while
// the producer pushes K final items and immediately closes. Exactly K pops
// must report kOk (each pill delivered once) and every other consumer must
// see kClosed far sooner than its deadline — the close must not strand a
// waiter, and a pill must never be dropped or double-delivered.
TEST(BlockingQueue, TryPopForRacingCloseDeliversEveryPillThenCloses) {
  constexpr int kConsumers = 6;
  constexpr int kPills = 3;
  BlockingQueue<int> q(kPills);
  std::atomic<int> ok_count{0};
  std::atomic<long> pill_sum{0};
  std::atomic<int> closed_count{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        int out = 0;
        // Far longer than the test runs; kClosed must cut the wait short.
        const QueueOpStatus st = q.try_pop_for(out, std::chrono::seconds(30));
        if (st == QueueOpStatus::kClosed) {
          ++closed_count;
          return;
        }
        ASSERT_EQ(st, QueueOpStatus::kOk);
        ++ok_count;
        pill_sum += out;
      }
    });
  }
  // Let consumers reach their waits, then race pills against close().
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= kPills; ++i) q.push(i);
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(ok_count.load(), kPills) << "every pill delivered exactly once";
  EXPECT_EQ(pill_sum.load(), kPills * (kPills + 1) / 2);
  EXPECT_EQ(closed_count.load(), kConsumers) << "no consumer left waiting";
}

TEST(BlockingQueue, CloseWakesDeadlineWaitersEarly) {
  BlockingQueue<int> q(1);
  q.push(1);  // full: producers wait; consumers would succeed, so test both
  std::atomic<int> closed_count{0};
  std::thread producer([&] {
    int v = 2;
    // Far longer than the test should take; close() must cut it short.
    if (q.try_push_for(v, std::chrono::seconds(30)) == QueueOpStatus::kClosed) {
      ++closed_count;
    }
  });
  BlockingQueue<int> empty(1);
  std::thread consumer([&] {
    int out;
    if (empty.try_pop_for(out, std::chrono::seconds(30)) ==
        QueueOpStatus::kClosed) {
      ++closed_count;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  q.close();
  empty.close();
  producer.join();
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(closed_count.load(), 2);
}

// MPMC stress through the deadline-aware API only: every producer retries on
// kTimeout (as the pipeline's server does while draining gradients), every
// item must arrive exactly once, and close() must end all consumers.
TEST(BlockingQueue, DeadlineOpsUnderConcurrentProducersConsumers) {
  BlockingQueue<int> q(4);
  constexpr int kPerProducer = 300;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  std::atomic<long> total{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) {
        int v = i;
        QueueOpStatus st;
        do {
          st = q.try_push_for(v, std::chrono::milliseconds(1));
          ASSERT_NE(st, QueueOpStatus::kClosed);
        } while (st != QueueOpStatus::kOk);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int out;
      for (;;) {
        const QueueOpStatus st = q.try_pop_for(out, std::chrono::milliseconds(1));
        if (st == QueueOpStatus::kClosed) return;
        if (st != QueueOpStatus::kOk) continue;
        total += out;
        ++popped;
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  const long expected =
      static_cast<long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2;
  EXPECT_EQ(total.load(), expected);
}

}  // namespace
}  // namespace elrec
