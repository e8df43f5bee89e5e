// SIMD/scalar parity suite for the vector-ops primitives. Every test runs
// its subject twice — scalar path forced, then the AVX2 path when the host
// has it — and demands bit-identical outputs, across selectivities (0%,
// ~50%, 100%) and tail lengths that are not multiples of 8 or 1024. The
// engine-level counterpart is the conformance suite run with CRYSTAL_SIMD=0
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpu/hash_join.h"
#include "cpu/vector_ops.h"

namespace crystal::cpu {
namespace {

/// Restores the SIMD toggle on scope exit so tests cannot leak state.
class SimdGuard {
 public:
  SimdGuard() : saved_(SimdEnabled()) {}
  ~SimdGuard() { SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

/// Runs `fn` with the scalar path forced and, when available, with the
/// SIMD path forced. `fn` receives a label for failure messages.
template <typename Fn>
void ForBothPaths(Fn fn) {
  SimdGuard guard;
  SetSimdEnabled(false);
  fn("scalar");
  if (SimdAvailable()) {
    SetSimdEnabled(true);
    fn("simd");
  }
}

std::vector<int32_t> RandomColumn(int n, uint64_t seed, int32_t max_value) {
  Rng rng(seed);
  std::vector<int32_t> col(static_cast<size_t>(n));
  for (auto& v : col) v = rng.UniformInt(0, max_value - 1);
  return col;
}

std::vector<int32_t> ReferenceSelect(const std::vector<int32_t>& col,
                                     int32_t lo, int32_t hi) {
  std::vector<int32_t> want;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i] >= lo && col[i] <= hi) want.push_back(static_cast<int32_t>(i));
  }
  return want;
}

// Tail lengths deliberately off the 8-lane and 1024-vector grids.
const int kLengths[] = {0, 1, 7, 8, 9, 63, 100, 1000, 1023, 1024, 1025};

// (lo, hi) windows over values in [0, 100): empty, ~half, everything.
const int32_t kRanges[][2] = {{200, 300}, {0, 49}, {25, 24}, {0, 99}};

TEST(VectorOpsSelectTest, MatchesReferenceAcrossSelectivitiesAndTails) {
  for (int n : kLengths) {
    const auto col = RandomColumn(n, 17 + static_cast<uint64_t>(n), 100);
    for (const auto& range : kRanges) {
      const auto want = ReferenceSelect(col, range[0], range[1]);
      ForBothPaths([&](const char* label) {
        // Room for whole-register stores past the match count.
        std::vector<int32_t> sel(static_cast<size_t>(n) + 8, -1);
        const int m =
            SelectRange(col.data(), n, range[0], range[1], sel.data());
        ASSERT_EQ(static_cast<size_t>(m), want.size())
            << label << " n=" << n << " [" << range[0] << "," << range[1]
            << "]";
        for (int i = 0; i < m; ++i) {
          ASSERT_EQ(sel[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
              << label << " n=" << n << " i=" << i;
        }
      });
    }
  }
}

TEST(VectorOpsRefineTest, InPlaceRefineMatchesReference) {
  for (int n : kLengths) {
    const auto col = RandomColumn(n, 23 + static_cast<uint64_t>(n), 100);
    const auto first = ReferenceSelect(col, 0, 59);  // ~60% survive stage 1
    for (const auto& range : kRanges) {
      std::vector<int32_t> want;
      for (int32_t s : first) {
        const int32_t v = col[static_cast<size_t>(s)];
        if (v >= range[0] && v <= range[1]) want.push_back(s);
      }
      ForBothPaths([&](const char* label) {
        std::vector<int32_t> sel(first.begin(), first.end());
        sel.resize(first.size() + 8, -1);
        const int m =
            RefineRange(col.data(), sel.data(),
                        static_cast<int>(first.size()), range[0], range[1],
                        sel.data());
        ASSERT_EQ(static_cast<size_t>(m), want.size()) << label << " n=" << n;
        for (int i = 0; i < m; ++i) {
          ASSERT_EQ(sel[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
              << label << " n=" << n << " i=" << i;
        }
      });
    }
  }
}

struct ProbeReference {
  std::vector<int32_t> sel, val, pos;
};

ProbeReference ReferenceProbe(const HashTable& ht,
                              const std::vector<int32_t>& keys,
                              const std::vector<int32_t>* sel) {
  ProbeReference want;
  const int m = static_cast<int>(sel != nullptr ? sel->size() : keys.size());
  for (int i = 0; i < m; ++i) {
    const int32_t row = sel != nullptr ? (*sel)[static_cast<size_t>(i)] : i;
    int32_t value;
    if (ht.Lookup(keys[static_cast<size_t>(row)], &value)) {
      want.sel.push_back(row);
      want.val.push_back(value);
      want.pos.push_back(i);
    }
  }
  return want;
}

TEST(VectorOpsProbeTest, MatchesLookupAcrossTailsAndSelectivities) {
  ThreadPool pool(2);
  // Build side: every third key in [0, 3000) -> ~1/3 probe hit rate; plus
  // an always-hit and a never-hit table for the selectivity extremes.
  std::vector<int32_t> bkeys, bvals;
  for (int32_t k = 0; k < 3000; k += 3) {
    bkeys.push_back(k);
    bvals.push_back(k * 7);
  }
  HashTable third(1000);
  third.Build(bkeys.data(), bvals.data(),
              static_cast<int64_t>(bkeys.size()), pool);
  HashTable empty(1);  // never hits
  HashTable all(3000, /*max_fill=*/1.0);
  for (int32_t k = 0; k < 3000; ++k) all.Insert(k, k + 1);

  for (int n : kLengths) {
    const auto keys = RandomColumn(n, 29 + static_cast<uint64_t>(n), 3000);
    // Selection over every other row, exercising the gather path.
    std::vector<int32_t> half_sel;
    for (int i = 0; i < n; i += 2) half_sel.push_back(i);

    const std::vector<int32_t>* sel_variants[] = {nullptr, &half_sel};
    for (const HashTable* ht : {&third, &empty, &all}) {
      for (const std::vector<int32_t>* sel : sel_variants) {
        const ProbeReference want = ReferenceProbe(*ht, keys, sel);
        ForBothPaths([&](const char* label) {
          const int m =
              static_cast<int>(sel != nullptr ? sel->size() : keys.size());
          std::vector<int32_t> out_sel(static_cast<size_t>(m) + 8, -1);
          std::vector<int32_t> out_val(static_cast<size_t>(m) + 8, -1);
          std::vector<int32_t> out_pos(static_cast<size_t>(m) + 8, -1);
          if (sel != nullptr) {
            std::copy(sel->begin(), sel->end(), out_sel.begin());
          }
          // In-place on the selection vector, as the engine runs it.
          const int got = ProbeSelect(
              *ht, keys.data(), sel != nullptr ? out_sel.data() : nullptr, m,
              out_sel.data(), out_val.data(), out_pos.data());
          ASSERT_EQ(static_cast<size_t>(got), want.sel.size())
              << label << " n=" << n;
          for (int i = 0; i < got; ++i) {
            ASSERT_EQ(out_sel[static_cast<size_t>(i)],
                      want.sel[static_cast<size_t>(i)])
                << label << " n=" << n << " i=" << i;
            ASSERT_EQ(out_val[static_cast<size_t>(i)],
                      want.val[static_cast<size_t>(i)])
                << label << " n=" << n << " i=" << i;
            ASSERT_EQ(out_pos[static_cast<size_t>(i)],
                      want.pos[static_cast<size_t>(i)])
                << label << " n=" << n << " i=" << i;
          }
        });
      }
    }
  }
}

TEST(VectorOpsProbeTest, OptionalOutputsMayBeNull) {
  ThreadPool pool(1);
  std::vector<int32_t> bkeys = {2, 4, 6, 8};
  std::vector<int32_t> bvals = {20, 40, 60, 80};
  HashTable ht(4);
  ht.Build(bkeys.data(), bvals.data(), 4, pool);
  const std::vector<int32_t> keys = {0, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  ForBothPaths([&](const char* label) {
    std::vector<int32_t> out_sel(keys.size() + 8, -1);
    const int got =
        ProbeSelect(ht, keys.data(), nullptr, static_cast<int>(keys.size()),
                    out_sel.data(), nullptr, nullptr);
    ASSERT_EQ(got, 4) << label;
    EXPECT_EQ(out_sel[0], 1) << label;
    EXPECT_EQ(out_sel[3], 7) << label;
  });
}

// A probe key of -1 encodes to key+1 == 0, the empty-slot marker; the SIMD
// path must treat it as a miss (empty wins over match), like Lookup does.
TEST(VectorOpsProbeTest, NegativeProbeKeysNeverMatch) {
  ThreadPool pool(1);
  std::vector<int32_t> bkeys = {0, 1, 2, 3};
  std::vector<int32_t> bvals = {5, 6, 7, 8};
  HashTable ht(4);
  ht.Build(bkeys.data(), bvals.data(), 4, pool);
  const std::vector<int32_t> keys = {-1, -1, 2, -7, -1, 0, -2, -1, -1, -1};
  ForBothPaths([&](const char* label) {
    std::vector<int32_t> out_sel(keys.size() + 8, -1);
    std::vector<int32_t> out_val(keys.size() + 8, -1);
    const int got =
        ProbeSelect(ht, keys.data(), nullptr, static_cast<int>(keys.size()),
                    out_sel.data(), out_val.data(), nullptr);
    ASSERT_EQ(got, 2) << label;
    EXPECT_EQ(out_sel[0], 2) << label;
    EXPECT_EQ(out_val[0], 7) << label;
    EXPECT_EQ(out_sel[1], 5) << label;
    EXPECT_EQ(out_val[1], 5) << label;
  });
}

// Vector-ops side of the infinite-probe regression: misses against the
// fullest legal table (one empty slot) must terminate on both paths.
TEST(VectorOpsProbeTest, MissProbeTerminatesOnMaximallyFullTable) {
  HashTable ht(7, /*max_fill=*/1.0);
  ASSERT_EQ(ht.num_slots(), 8);
  for (int32_t k = 0; k < 7; ++k) ht.Insert(k * 2, k);  // even keys only
  std::vector<int32_t> keys;
  for (int32_t k = 1; k < 33; k += 2) keys.push_back(k);  // all misses
  ForBothPaths([&](const char* label) {
    std::vector<int32_t> out_sel(keys.size() + 8, -1);
    const int got =
        ProbeSelect(ht, keys.data(), nullptr, static_cast<int>(keys.size()),
                    out_sel.data(), nullptr, nullptr);
    EXPECT_EQ(got, 0) << label;
  });
}

/// `size` bytes that end exactly at an inaccessible guard page, so any
/// read past the last byte faults. ASan cannot stand in for this: it does
/// not instrument the AVX2 gathers that read the tail slack.
class GuardedBytes {
 public:
  explicit GuardedBytes(size_t size) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    map_bytes_ = (size + page - 1) / page * page + page;
    void* p = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    map_ = static_cast<uint8_t*>(p);
    uint8_t* guard = map_ + map_bytes_ - page;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      munmap(map_, map_bytes_);
      throw std::bad_alloc();
    }
    data_ = guard - size;
  }
  ~GuardedBytes() { munmap(map_, map_bytes_); }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;

  uint8_t* data() const { return data_; }

 private:
  uint8_t* map_ = nullptr;
  size_t map_bytes_ = 0;
  uint8_t* data_ = nullptr;
};

/// A hand-encoded direct table plus the key -> payload map it encodes, the
/// reference ProbeDirect is checked against. The buffer is exactly
/// DirectTableBytes long and guarded, so a probe reading past the tail
/// slack crashes the test. About 2/3 of the span's slots get random
/// payloads (the rest stay absent); slot 0 stays absent and the last slot
/// holds the widest legal offset (max - 1 at the width, since all-ones
/// means absent).
struct DirectFixture {
  DirectFixture(DirectWidth width, int32_t key_base, int64_t span,
                uint64_t seed)
      : bytes(static_cast<size_t>(DirectTableBytes(width, span))) {
    uint8_t* data = bytes.data();
    std::fill(data, data + DirectTableBytes(width, span),
              width == DirectWidth::kBitmap ? 0 : 0xFF);
    const int32_t payload_base = 1000;
    const int32_t max_offset = width == DirectWidth::kU16 ? 0xFFFE : 0xFE;
    Rng rng(seed);
    for (int64_t off = 1; off < span; ++off) {
      const bool last = off == span - 1;
      if (!last && rng.UniformInt(0, 2) == 0) continue;
      const int32_t key = key_base + static_cast<int32_t>(off);
      if (width == DirectWidth::kBitmap) {
        data[off >> 3] |= static_cast<uint8_t>(1u << (off & 7));
        entries[key] = key;
        continue;
      }
      const int32_t offset = last ? max_offset : rng.UniformInt(0, max_offset);
      if (width == DirectWidth::kU8) {
        data[off] = static_cast<uint8_t>(offset);
      } else {
        data[2 * off] = static_cast<uint8_t>(offset);
        data[2 * off + 1] = static_cast<uint8_t>(offset >> 8);
      }
      entries[key] = payload_base + offset;
    }
    view = {data, span, key_base, payload_base, width};
  }

  GuardedBytes bytes;
  DirectTable view;
  std::map<int32_t, int32_t> entries;
};

TEST(VectorOpsProbeDirectTest, MatchesReferenceAcrossWidthsSelsAndTails) {
  struct Shape {
    DirectWidth width;
    int32_t key_base;
    int64_t span;
  };
  // Spans off the 8-bit grid so the bitmap's last byte is partial; the
  // u16 span is wide enough to hold offset 65534.
  const Shape shapes[] = {{DirectWidth::kBitmap, 1, 301},
                          {DirectWidth::kU8, 19920101, 250},
                          {DirectWidth::kU16, 5, 70000}};
  for (const Shape& shape : shapes) {
    const DirectFixture f(shape.width, shape.key_base, shape.span, 41);
    const int32_t last = shape.key_base + static_cast<int32_t>(shape.span) - 1;
    for (int tail = 0; tail < 16; ++tail) {
      for (int m_body : {0, 48}) {
        const int n = m_body + tail;
        // Keys around and inside the span, plus the extremes: negative,
        // just outside each end, the (absent) first and the last slot.
        Rng rng(97 + static_cast<uint64_t>(n));
        std::vector<int32_t> keys(static_cast<size_t>(n));
        const int32_t special[] = {INT32_MIN, -1, shape.key_base - 1,
                                   shape.key_base, last, last + 1, INT32_MAX};
        for (int i = 0; i < n; ++i) {
          keys[static_cast<size_t>(i)] =
              i % 5 == 0 ? special[(i / 5) % 7]
                         : shape.key_base - 20 +
                               rng.UniformInt(
                                   0, static_cast<int32_t>(shape.span) + 40);
        }
        if (n > 0) keys[static_cast<size_t>(n - 1)] = last;
        std::vector<int32_t> sparse;
        for (int i = 0; i < n; i += 3) sparse.push_back(i);
        for (const std::vector<int32_t>* sel :
             {static_cast<const std::vector<int32_t>*>(nullptr),
              static_cast<const std::vector<int32_t>*>(&sparse)}) {
          ProbeReference want;
          const int m = sel != nullptr ? static_cast<int>(sel->size()) : n;
          for (int i = 0; i < m; ++i) {
            const int32_t row =
                sel != nullptr ? (*sel)[static_cast<size_t>(i)] : i;
            const auto it = f.entries.find(keys[static_cast<size_t>(row)]);
            if (it == f.entries.end()) continue;
            want.sel.push_back(row);
            want.val.push_back(it->second);
            want.pos.push_back(i);
          }
          ForBothPaths([&](const char* label) {
            std::vector<int32_t> out_sel(static_cast<size_t>(m) + 8, -1);
            std::vector<int32_t> out_val(static_cast<size_t>(m) + 8, -1);
            std::vector<int32_t> out_pos(static_cast<size_t>(m) + 8, -1);
            if (sel != nullptr) {
              std::copy(sel->begin(), sel->end(), out_sel.begin());
            }
            const int got = ProbeDirect(
                f.view, keys.data(), sel != nullptr ? out_sel.data() : nullptr,
                m, out_sel.data(), out_val.data(), out_pos.data());
            const std::string where =
                std::string(label) +
                " width=" + std::to_string(static_cast<int>(shape.width)) +
                " n=" + std::to_string(n) +
                (sel != nullptr ? " sparse" : " dense");
            ASSERT_EQ(static_cast<size_t>(got), want.sel.size()) << where;
            for (int i = 0; i < got; ++i) {
              const size_t u = static_cast<size_t>(i);
              ASSERT_EQ(out_sel[u], want.sel[u]) << where << " i=" << i;
              ASSERT_EQ(out_val[u], want.val[u]) << where << " i=" << i;
              ASSERT_EQ(out_pos[u], want.pos[u]) << where << " i=" << i;
            }
          });
        }
      }
    }
  }
}

TEST(VectorOpsProbeDirectTest, LastSlotAndWidestOffsetHitWithNullOutputs) {
  // Eight copies of the last key: the AVX2 body's gather reads the last
  // slot (32 bits from its first byte, into the tail slack) on every lane.
  for (DirectWidth width :
       {DirectWidth::kBitmap, DirectWidth::kU8, DirectWidth::kU16}) {
    const int64_t span = width == DirectWidth::kU16 ? 65600 : 77;
    const DirectFixture f(width, 3, span, 7);
    const int32_t last = 3 + static_cast<int32_t>(span) - 1;
    const std::vector<int32_t> keys(9, last);
    const int32_t want_val =
        width == DirectWidth::kBitmap
            ? last
            : 1000 + (width == DirectWidth::kU8 ? 0xFE : 0xFFFE);
    ForBothPaths([&](const char* label) {
      std::vector<int32_t> out_sel(keys.size() + 8, -1);
      std::vector<int32_t> out_val(keys.size() + 8, -1);
      EXPECT_EQ(ProbeDirect(f.view, keys.data(), nullptr, 9, out_sel.data(),
                            nullptr, nullptr),
                9)
          << label;
      ASSERT_EQ(ProbeDirect(f.view, keys.data(), nullptr, 9, out_sel.data(),
                            out_val.data(), nullptr),
                9)
          << label;
      for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(out_sel[static_cast<size_t>(i)], i) << label;
        EXPECT_EQ(out_val[static_cast<size_t>(i)], want_val) << label;
      }
    });
  }
}

TEST(VectorOpsCompactTest, CompactsCarriedVectorsInPlace) {
  std::vector<int32_t> v = {10, 11, 12, 13, 14, 15, 16, 17};
  const std::vector<int32_t> pos = {0, 2, 3, 7};
  CompactInPlace(v.data(), pos.data(), static_cast<int>(pos.size()));
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 12);
  EXPECT_EQ(v[2], 13);
  EXPECT_EQ(v[3], 17);
}

TEST(VectorOpsDispatchTest, ToggleIsStickyAndSafe) {
  SimdGuard guard;
  SetSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  SetSimdEnabled(true);
  // Enabling succeeds exactly when the host + build support AVX2.
  EXPECT_EQ(SimdEnabled(), SimdAvailable());
}

}  // namespace
}  // namespace crystal::cpu
