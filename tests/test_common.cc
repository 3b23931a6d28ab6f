/**
 * @file
 * Unit tests for the common substrate: FP16 conversion (property sweeps),
 * the deterministic RNG, the binary serializer, the device allocator, and
 * the sparse GPU memory image.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/fnv.h"
#include "common/fp16.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "mem/allocator.h"
#include "mem/gpu_memory.h"
#include "sim_test_util.h"

using namespace mlgs;

namespace
{

// ---- FP16 ----

TEST(Fp16, ExactValuesRoundTrip)
{
    const float exact[] = {0.0f,   1.0f,    -1.0f, 0.5f,  1.5f, 2.0f,
                           -2.75f, 1024.0f, 65504.0f /* max fp16 */};
    for (const float f : exact)
        EXPECT_EQ(fp16ToFp32(fp32ToFp16(f)), f) << f;
}

TEST(Fp16, SignedZeroAndInfinity)
{
    EXPECT_EQ(fp32ToFp16(0.0f), 0x0000u);
    EXPECT_EQ(fp32ToFp16(-0.0f), 0x8000u);
    EXPECT_EQ(fp32ToFp16(1e10f), 0x7c00u);  // overflow -> +inf
    EXPECT_EQ(fp32ToFp16(-1e10f), 0xfc00u); // -> -inf
    EXPECT_TRUE(std::isinf(fp16ToFp32(0x7c00u)));
    EXPECT_TRUE(std::isnan(fp16ToFp32(0x7e00u)));
    EXPECT_TRUE(std::isnan(fp16ToFp32(fp32ToFp16(NAN))));
}

TEST(Fp16, SubnormalsRepresentable)
{
    // Smallest positive subnormal: 2^-24.
    const float tiny = std::ldexp(1.0f, -24);
    EXPECT_EQ(fp16ToFp32(fp32ToFp16(tiny)), tiny);
    // Below half of it rounds to zero.
    EXPECT_EQ(fp32ToFp16(std::ldexp(1.0f, -26)), 0x0000u);
}

class Fp16Sweep : public ::testing::TestWithParam<int>
{
};

TEST_P(Fp16Sweep, RoundTripWithinHalfUlp)
{
    // Property: decode(encode(x)) is within the fp16 spacing around x, and
    // encode(decode(h)) == h for every finite h.
    Rng rng{uint64_t(GetParam())};
    for (int i = 0; i < 2000; i++) {
        const float x = rng.uniform(-60000.0f, 60000.0f);
        const float back = fp16ToFp32(fp32ToFp16(x));
        const float spacing =
            std::ldexp(1.0f, std::max(-24, int(std::floor(std::log2(
                                               std::fabs(x) + 1e-30f))) -
                                               10));
        EXPECT_NEAR(back, x, spacing) << x;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fp16Sweep, ::testing::Values(1, 2, 3, 4));

TEST(Fp16, EncodeDecodeIdempotentOnAllFiniteBitPatterns)
{
    for (uint32_t h = 0; h < 0x10000u; h++) {
        const uint16_t bits = uint16_t(h);
        const float f = fp16ToFp32(bits);
        if (std::isnan(f))
            continue; // NaN payloads may canonicalize
        EXPECT_EQ(fp32ToFp16(f), bits) << std::hex << h;
    }
}

// ---- RNG ----

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    bool any_diff = false;
    for (int i = 0; i < 100; i++) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRangeAndRoughlyCentered)
{
    Rng rng(7);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        const float v = rng.uniform(2.0f, 4.0f);
        ASSERT_GE(v, 2.0f);
        ASSERT_LT(v, 4.0f);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, GaussMomentsPlausible)
{
    Rng rng(9);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; i++) {
        const double g = rng.gauss();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---- serializer ----

TEST(Serialize, RoundTripAllTypes)
{
    BinaryWriter w;
    w.put<uint32_t>(0xdeadbeef);
    w.put<double>(3.25);
    w.putString("hello checkpoint");
    w.putVector(std::vector<uint16_t>{1, 2, 3, 65535});

    BinaryReader r(w.bytes());
    EXPECT_EQ(r.get<uint32_t>(), 0xdeadbeefu);
    EXPECT_EQ(r.get<double>(), 3.25);
    EXPECT_EQ(r.getString(), "hello checkpoint");
    const auto v = r.getVector<uint16_t>();
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[3], 65535u);
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, TruncatedStreamIsFatal)
{
    BinaryWriter w;
    w.put<uint32_t>(1);
    BinaryReader r(w.bytes());
    r.get<uint32_t>();
    EXPECT_THROW(r.get<uint64_t>(), FatalError);
}

// ---- byte-stable JSON doubles ----

TEST(JsonDouble, RoundTripsExactly)
{
    // jsonDouble renders the shortest decimal that parses back to the same
    // bits — the property the byte-stable stats JSON rests on.
    const double values[] = {0.0,    1.0,       0.1,   1.0 / 3.0,
                             2.5e-7, 1234.5678, 1e300, 6.25e-10,
                             -0.625, 98.760000000000005};
    for (const double v : values) {
        const std::string s = jsonDouble(v);
        EXPECT_EQ(std::stod(s), v) << s;
    }
}

TEST(JsonDouble, StableAndCompact)
{
    EXPECT_EQ(jsonDouble(0.0), "0");
    EXPECT_EQ(jsonDouble(1.0), jsonDouble(1.0));
    // Shortest form, not 17 significant digits of noise.
    EXPECT_EQ(jsonDouble(0.1), "0.1");
    EXPECT_EQ(jsonDouble(2.5), "2.5");
}

TEST(JsonDouble, NonFiniteBecomesZero)
{
    // JSON has no NaN/Inf literal; the stats surfaces never produce them,
    // but the renderer must still emit valid JSON if one slips through.
    EXPECT_EQ(jsonDouble(std::nan("")), "0");
    EXPECT_EQ(jsonDouble(HUGE_VAL), "0");
}

// ---- FNV-1a ----

TEST(Fnv, IncrementalMatchesOneShot)
{
    const std::string data = "the quick brown fox";
    Fnv1a h;
    h.addBytes(data.data(), 7);
    h.addBytes(data.data() + 7, data.size() - 7);
    EXPECT_EQ(h.hash(), fnv1a(data.data(), data.size()));
}

TEST(Fnv, LengthPrefixedStringsDontCollide)
{
    // addString is length-prefixed so ("ab","c") and ("a","bc") hash apart.
    Fnv1a a, b;
    a.addString("ab");
    a.addString("c");
    b.addString("a");
    b.addString("bc");
    EXPECT_NE(a.hash(), b.hash());
}

TEST(Serialize, FileRoundTrip)
{
    mlgs::test::ScopedTmpDir tmp;
    const std::string path = tmp.file("serialize_test.bin");
    BinaryWriter w;
    w.putString("file payload");
    w.writeFile(path);
    auto r = BinaryReader::fromFile(path);
    EXPECT_EQ(r.getString(), "file payload");
}

// Capture the message a reader action fails with ("" if it succeeds).
template <typename Fn>
static std::string
failureMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Serialize, HeaderRoundTripReturnsVersion)
{
    BinaryWriter w;
    w.putHeader(0x1122334455667788ull, 3);
    w.put<uint32_t>(42);
    BinaryReader r(w.bytes(), "artifact.bin");
    EXPECT_EQ(r.readHeader(0x1122334455667788ull, 2, 4, "widget"), 3u);
    EXPECT_EQ(r.get<uint32_t>(), 42u);
}

TEST(Serialize, HeaderRejectsWrongMagic)
{
    BinaryWriter w;
    w.putHeader(0xabcdull, 1);
    const auto msg = failureMessage([&] {
        BinaryReader r(w.bytes(), "artifact.bin");
        r.readHeader(0x1234ull, 1, 1, "widget");
    });
    EXPECT_NE(msg.find("not a widget file"), std::string::npos) << msg;
    EXPECT_NE(msg.find("artifact.bin"), std::string::npos) << msg;
}

TEST(Serialize, HeaderRejectsVersionOutsideRange)
{
    for (const uint32_t bad : {1u, 9u}) {
        BinaryWriter w;
        w.putHeader(0x77ull, bad);
        const auto msg = failureMessage([&] {
            BinaryReader r(w.bytes(), "artifact.bin");
            r.readHeader(0x77ull, 2, 4, "widget");
        });
        EXPECT_NE(msg.find("unsupported widget version"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("2..4"), std::string::npos) << msg;
    }
}

TEST(Serialize, HeaderRejectsStreamShorterThanHeader)
{
    BinaryWriter w;
    w.put<uint32_t>(7); // 4 bytes; a header needs 12
    const auto msg = failureMessage([&] {
        BinaryReader r(w.bytes(), "stub.bin");
        r.readHeader(0x77ull, 1, 1, "widget");
    });
    EXPECT_NE(msg.find("too short to hold a header"), std::string::npos)
        << msg;
}

TEST(Serialize, CorruptVectorCountCannotOverflow)
{
    // A count whose byte size wraps uint64: n * sizeof(T) overflows to a
    // small number, so a naive `n * sizeof(T) <= remaining` check passes
    // and the reader would allocate/copy garbage. The divide-based check
    // must reject it.
    BinaryWriter w;
    w.put<uint64_t>(0x2000000000000001ull); // * 8 wraps to 8
    w.put<uint64_t>(0); // 8 bytes of "payload" so remaining() >= 8
    BinaryReader r(w.bytes(), "evil.bin");
    const auto msg = failureMessage([&] { r.getVector<uint64_t>(); });
    EXPECT_NE(msg.find("corrupt or truncated evil.bin"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("exceeds the"), std::string::npos) << msg;
}

TEST(Serialize, CorruptStringLengthIsFatal)
{
    BinaryWriter w;
    w.put<uint64_t>(~0ull); // huge length prefix, no payload
    BinaryReader r(w.bytes(), "evil.bin");
    const auto msg = failureMessage([&] { r.getString(); });
    EXPECT_NE(msg.find("corrupt or truncated evil.bin"), std::string::npos)
        << msg;
}

// ---- allocator ----

TEST(Allocator, AllocatesAlignedDisjointBlocks)
{
    DeviceAllocator alloc;
    const addr_t a = alloc.alloc(100, 256);
    const addr_t b = alloc.alloc(100, 256);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_TRUE(b >= a + 100 || a >= b + 100);
    EXPECT_EQ(alloc.bytesInUse(), 200u);
}

TEST(Allocator, ContainingFindsInteriorPointers)
{
    DeviceAllocator alloc;
    const addr_t a = alloc.alloc(4096);
    const auto hit = alloc.containing(a + 1234);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->addr, a);
    EXPECT_EQ(hit->size, 4096u);
    EXPECT_FALSE(alloc.containing(a + 4096).has_value());
    EXPECT_FALSE(alloc.containing(a - 1).has_value());
}

TEST(Allocator, FreeCoalescesAndReuses)
{
    DeviceAllocator alloc;
    const addr_t a = alloc.alloc(1 << 20);
    const addr_t b = alloc.alloc(1 << 20);
    const addr_t c = alloc.alloc(1 << 20);
    (void)b;
    alloc.free(a);
    alloc.free(c);
    alloc.free(b); // coalesce all three
    const addr_t big = alloc.alloc(3u << 20); // fits only if coalesced
    EXPECT_EQ(big, a);
}

TEST(Allocator, DoubleFreeIsFatal)
{
    DeviceAllocator alloc;
    const addr_t a = alloc.alloc(64);
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), FatalError);
}

TEST(Allocator, RandomStressKeepsInvariants)
{
    DeviceAllocator alloc;
    Rng rng(11);
    std::vector<std::pair<addr_t, size_t>> live;
    for (int i = 0; i < 2000; i++) {
        if (live.empty() || rng.below(2)) {
            const size_t sz = 1 + rng.below(10000);
            const addr_t p = alloc.alloc(sz);
            // No overlap with any live block.
            for (const auto &[q, qs] : live)
                ASSERT_TRUE(p + sz <= q || q + qs <= p);
            live.emplace_back(p, sz);
        } else {
            const size_t idx = size_t(rng.below(live.size()));
            alloc.free(live[idx].first);
            live.erase(live.begin() + long(idx));
        }
    }
    size_t total = 0;
    for (const auto &[p, s] : live)
        total += s;
    EXPECT_EQ(alloc.bytesInUse(), total);
}

// ---- GPU memory ----

TEST(GpuMemory, UntouchedReadsZero)
{
    GpuMemory mem;
    EXPECT_EQ(mem.load<uint64_t>(0x12345678), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(GpuMemory, CrossPageReadWrite)
{
    GpuMemory mem;
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 7);
    const addr_t base = 0x10000ff0; // straddles page boundaries
    mem.write(base, data.data(), data.size());
    std::vector<uint8_t> back(data.size());
    mem.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(GpuMemory, SaveRestoreExactImage)
{
    GpuMemory mem;
    mem.store<double>(0x20000000, 2.718281828);
    mem.store<uint32_t>(0x30001234, 777);
    BinaryWriter w;
    mem.save(w);
    GpuMemory other;
    BinaryReader r(w.bytes());
    other.restore(r);
    EXPECT_EQ(other.load<double>(0x20000000), 2.718281828);
    EXPECT_EQ(other.load<uint32_t>(0x30001234), 777u);
    EXPECT_EQ(other.pageCount(), mem.pageCount());
}

TEST(GpuMemory, MemsetRange)
{
    GpuMemory mem;
    mem.memset(0x40000100, 0xAB, 9000);
    EXPECT_EQ(mem.load<uint8_t>(0x40000100), 0xABu);
    EXPECT_EQ(mem.load<uint8_t>(0x40000100 + 8999), 0xABu);
    EXPECT_EQ(mem.load<uint8_t>(0x40000100 + 9000), 0u);
}

TEST(GpuMemory, PageHintStraddlingAccessesMatchUnhinted)
{
    GpuMemory mem;
    PageHint hint;
    const addr_t base = 0x50000ffa; // 6 bytes on one page, 10 on the next
    std::vector<uint8_t> back(16, 0xee);
    // The pages are absent: zeros, and the hint stays empty.
    mem.read(base, back.data(), back.size(), &hint);
    EXPECT_EQ(back, std::vector<uint8_t>(16, 0));
    EXPECT_EQ(hint.page, PageHint::kNoPage);

    std::vector<uint8_t> data(16);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(0x30 + i);
    mem.write(base, data.data(), data.size(), &hint);
    EXPECT_EQ(hint.page, (base + 15) >> GpuMemory::kPageBits);
    std::vector<uint8_t> plain(16), hinted(16);
    mem.read(base, plain.data(), plain.size());
    mem.read(base, hinted.data(), hinted.size(), &hint);
    EXPECT_EQ(plain, data);
    EXPECT_EQ(hinted, data);

    // Rewrite through the hint, one 4-byte word at a time across the seam.
    for (size_t i = 0; i < data.size(); i += 4) {
        data[i] ^= 0xff;
        mem.write(base + i, data.data() + i, 4, &hint);
    }
    mem.read(base, plain.data(), plain.size());
    mem.read(base, hinted.data(), hinted.size(), &hint);
    EXPECT_EQ(plain, data);
    EXPECT_EQ(hinted, data);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(GpuMemory, PageHintNeverRemembersAbsentPage)
{
    GpuMemory mem;
    mem.store<uint32_t>(0x60000000, 0x11223344);
    PageHint hint;
    EXPECT_EQ(mem.load<uint32_t>(0x60000000, &hint), 0x11223344u);
    const PageHint present = hint;
    EXPECT_EQ(present.page, addr_t(0x60000000) >> GpuMemory::kPageBits);

    // An unmaterialized page reads as zeros through the hint, is not
    // materialized, and leaves the hint on the last present page.
    uint64_t v = ~uint64_t(0);
    mem.read(0x60005000, &v, sizeof(v), &hint);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.pageCount(), 1u);
    EXPECT_EQ(hint.page, present.page);
    EXPECT_EQ(hint.bytes, present.bytes);
    EXPECT_EQ(mem.load<uint32_t>(0x60000000, &hint), 0x11223344u);
}

TEST(GpuMemory, PageHintSeesWritesFromOtherPaths)
{
    GpuMemory mem;
    PageHint hint;
    // Read an absent page through the hint, then materialize it elsewhere.
    EXPECT_EQ(mem.load<uint32_t>(0x70000010, &hint), 0u);
    mem.store<uint32_t>(0x70000010, 0xcafef00d);
    EXPECT_EQ(mem.load<uint32_t>(0x70000010, &hint), 0xcafef00du);
    EXPECT_EQ(hint.page, addr_t(0x70000010) >> GpuMemory::kPageBits);

    // Now the hint holds the page; writes without it and memset land in the
    // same storage the hint reads.
    mem.store<uint32_t>(0x70000010, 0x0badbeef);
    EXPECT_EQ(mem.load<uint32_t>(0x70000010, &hint), 0x0badbeefu);
    mem.memset(0x70000010, 0x5a, 4);
    EXPECT_EQ(mem.load<uint32_t>(0x70000010, &hint), 0x5a5a5a5au);
}

} // namespace
