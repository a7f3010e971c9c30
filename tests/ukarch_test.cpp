// Tests for ukarch helpers: alignment math, hashes, CRC-32C, deterministic RNG,
// statistics counters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "ukarch/align.h"
#include "ukarch/counters.h"
#include "ukarch/crc32.h"
#include "ukarch/hash.h"
#include "ukarch/random.h"
#include "ukarch/status.h"

namespace {

using namespace ukarch;

TEST(Align, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_TRUE(IsPow2(1ull << 40));
  EXPECT_FALSE(IsPow2((1ull << 40) + 1));
}

TEST(Align, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 16), 0u);
  EXPECT_EQ(AlignUp(1, 16), 16u);
  EXPECT_EQ(AlignUp(16, 16), 16u);
  EXPECT_EQ(AlignUp(17, 16), 32u);
  EXPECT_EQ(AlignDown(17, 16), 16u);
  EXPECT_EQ(AlignDown(15, 16), 0u);
  EXPECT_TRUE(IsAligned(4096, 4096));
  EXPECT_FALSE(IsAligned(4097, 4096));
}

TEST(Align, CeilPow2) {
  EXPECT_EQ(CeilPow2(0), 1u);
  EXPECT_EQ(CeilPow2(1), 1u);
  EXPECT_EQ(CeilPow2(2), 2u);
  EXPECT_EQ(CeilPow2(3), 4u);
  EXPECT_EQ(CeilPow2(4096), 4096u);
  EXPECT_EQ(CeilPow2(4097), 8192u);
  EXPECT_EQ(CeilPow2((1ull << 35) + 1), 1ull << 36);
}

TEST(Align, Log2) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(1024), 10u);
  EXPECT_EQ(Log2Ceil(1024), 10u);
  EXPECT_EQ(Log2Ceil(1025), 11u);
}

TEST(Align, FfsFls) {
  EXPECT_EQ(Ffs(0), 0u);
  EXPECT_EQ(Ffs(1), 1u);
  EXPECT_EQ(Ffs(8), 4u);
  EXPECT_EQ(Ffs(0b1010'0000), 6u);
  EXPECT_EQ(Fls(0), 0u);
  EXPECT_EQ(Fls(1), 1u);
  EXPECT_EQ(Fls(0xFF), 8u);
}

TEST(Hash, Fnv1aStable) {
  // Known-good FNV-1a vectors guard against accidental constant changes.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_EQ(Fnv1a32(""), 0x811c9dc5u);
}

TEST(Hash, Mix64Spreads) {
  std::set<std::uint64_t> low_bits;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    low_bits.insert(Mix64(i) & 0xFF);
  }
  // Sequential inputs must hit most byte buckets.
  EXPECT_GT(low_bits.size(), 200u);
}

// One bit at a time, straight from the reflected polynomial: the reference
// every table-driven variant must agree with.
std::uint32_t BitwiseCrc32c(const std::byte* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= static_cast<std::uint8_t>(p[i]);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t CrcOfBytes(const std::array<std::uint8_t, 32>& bytes) {
  return Crc32Of(std::as_bytes(std::span(bytes)));
}

TEST(Crc32c, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(Crc32Of(std::as_bytes(std::span(kCheck))), 0xE3069283u);
  EXPECT_EQ(Crc32Of({}), 0u);
}

TEST(Crc32c, Rfc3720Vectors) {
  std::array<std::uint8_t, 32> bytes{};
  EXPECT_EQ(CrcOfBytes(bytes), 0x8A9136AAu);
  bytes.fill(0xFF);
  EXPECT_EQ(CrcOfBytes(bytes), 0x62A8AB43u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(CrcOfBytes(bytes), 0x46DD794Eu);
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::array<std::byte, 8 + 64 + 4096> buf{};
  Xorshift rng(12);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(Crc32Of(std::span(buf.data() + off, len)), BitwiseCrc32c(buf.data() + off, len))
          << "off=" << off << " len=" << len;
    }
  }
  EXPECT_EQ(Crc32Of(buf), BitwiseCrc32c(buf.data(), buf.size()));
}

TEST(Crc32c, SplitUpdatesEqualOneShot) {
  std::array<std::byte, 100> buf{};
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 37 + 5);
  }
  const std::uint32_t whole = Crc32Of(buf);
  EXPECT_EQ(whole, BitwiseCrc32c(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    Crc32 c;
    c.Update(buf.data(), split);
    c.Update(buf.data() + split, buf.size() - split);
    EXPECT_EQ(c.value(), whole) << "split=" << split;
  }
}

TEST(Random, Deterministic) {
  Xorshift a(42);
  Xorshift b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Random, RangeBounds) {
  Xorshift rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(Random, ZipfishSkew) {
  Xorshift rng(3);
  std::uint64_t low = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextZipfish(100) < 20) {
      ++low;
    }
  }
  // min-of-three sampling concentrates mass at small indices: P(<20) ~ 1-0.8^3.
  EXPECT_GT(low, kDraws / 3u);
}

TEST(Status, RoundTrip) {
  EXPECT_TRUE(Ok(Status::kOk));
  EXPECT_FALSE(Ok(Status::kNoMem));
  EXPECT_EQ(Raw(Status::kNoSys), -38);
  EXPECT_STREQ(StatusName(Status::kNoEnt), "ENOENT");
  EXPECT_STREQ(StatusName(Status::kConnRefused), "ECONNREFUSED");
}

struct TestCounters {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

// A snapshot may extend another; the base's fields stay addressable.
struct ExtendedCounters : TestCounters {
  std::uint64_t d = 0;
};

TEST(Counters, AddLoadRoundTripsEveryField) {
  Counters<ExtendedCounters> block;
  const ExtendedCounters zero = block.Load();
  EXPECT_EQ(zero.a + zero.b + zero.c + zero.d, 0u);
  block.Add(&ExtendedCounters::a);
  block.Add(&ExtendedCounters::b, 20);
  block.Add(&ExtendedCounters::c, 300);
  block.Add(&ExtendedCounters::d, 4000);
  block.Add(&ExtendedCounters::a, 2);
  const ExtendedCounters s = block.Load();
  EXPECT_EQ(s.a, 3u);
  EXPECT_EQ(s.b, 20u);
  EXPECT_EQ(s.c, 300u);
  EXPECT_EQ(s.d, 4000u);
}

TEST(Counters, AddToIsFieldWise) {
  TestCounters acc{.a = 1, .b = 2, .c = 3};
  AddTo(&acc, TestCounters{.a = 10, .b = 0, .c = 30});
  EXPECT_EQ(acc.a, 11u);
  EXPECT_EQ(acc.b, 2u);
  EXPECT_EQ(acc.c, 33u);
}

TEST(CounterSlots, SumIsTheSumOfEverySlot) {
  constexpr std::size_t kSlots = 4;
  CounterSlots<TestCounters, kSlots> slots;
  for (std::size_t i = 0; i < kSlots; ++i) {
    slots.At(i).Add(&TestCounters::a, i + 1);
    slots.At(i).Add(&TestCounters::c, 10 * (i + 1));
  }
  TestCounters expect;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const TestCounters one = slots.Load(i);
    EXPECT_EQ(one.a, i + 1);
    expect.a += one.a;
    expect.b += one.b;
    expect.c += one.c;
  }
  const TestCounters sum = slots.Sum();
  EXPECT_EQ(sum.a, expect.a);
  EXPECT_EQ(sum.b, expect.b);
  EXPECT_EQ(sum.c, expect.c);
  EXPECT_EQ(sum.a, 10u);
  EXPECT_EQ(sum.c, 100u);
}

TEST(CounterSlots, OutOfRangeSlotLandsInTheLastSlot) {
  CounterSlots<TestCounters, 4> slots;
  slots.At(4).Add(&TestCounters::b);
  slots.At(1000).Add(&TestCounters::b);
  EXPECT_EQ(slots.Load(3).b, 2u);
  EXPECT_EQ(slots.Load(99).b, 2u);  // reads clamp the same way
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(slots.Load(i).b, 0u);
  }
  EXPECT_EQ(slots.Sum().b, 2u);
}

// One real thread per slot bumps its own block while the main thread keeps
// summing. Every slot only grows, so successive sums never shrink; once the
// writers join, the sum is exact.
TEST(CounterSlots, ConcurrentWritersAndSummingReaderAreExact) {
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kBumps = 20000;
  CounterSlots<TestCounters, kWriters> slots;
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&slots, &finished, w] {
      for (std::uint64_t i = 0; i < kBumps; ++i) {
        slots.At(w).Add(&TestCounters::a);
        slots.At(w).Add(&TestCounters::c, 2);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  std::uint64_t last = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t overshoots = 0;
  while (finished.load(std::memory_order_acquire) < kWriters) {
    const TestCounters s = slots.Sum();
    shrinks += s.a < last ? 1 : 0;
    overshoots += s.a > kWriters * kBumps ? 1 : 0;
    last = s.a;
  }
  for (std::thread& t : writers) {
    t.join();
  }
  EXPECT_EQ(shrinks, 0u);
  EXPECT_EQ(overshoots, 0u);
  const TestCounters sum = slots.Sum();
  EXPECT_EQ(sum.a, kWriters * kBumps);
  EXPECT_EQ(sum.b, 0u);
  EXPECT_EQ(sum.c, 2 * kWriters * kBumps);
  for (std::size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(slots.Load(w).a, kBumps);
  }
}

}  // namespace
