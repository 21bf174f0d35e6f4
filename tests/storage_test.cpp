// Storage layer: in-memory store semantics and the PageDB embedded database
// (persistence, WAL recovery, page-cache eviction, bucket chaining).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "storage/env.h"
#include "storage/faulty_env.h"
#include "storage/mem_store.h"
#include "storage/page_db.h"
#include "storage/wal.h"

namespace rdb::storage {
namespace {

namespace fs = std::filesystem;

TEST(MemStore, PutGetUpdate) {
  MemStore s;
  EXPECT_FALSE(s.get("k").has_value());
  s.put("k", "v1");
  EXPECT_EQ(s.get("k").value(), "v1");
  s.put("k", "v2");
  EXPECT_EQ(s.get("k").value(), "v2");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains("k"));
  EXPECT_FALSE(s.contains("other"));
}

TEST(MemStore, StatsTrackReadsWritesMisses) {
  MemStore s;
  s.put("a", "1");
  (void)s.get("a");
  (void)s.get("missing");
  auto st = s.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.reads, 2u);
  EXPECT_EQ(st.read_misses, 1u);
}

TEST(MemStore, ManyKeysAcrossStripes) {
  MemStore s;
  for (int i = 0; i < 1000; ++i)
    s.put("key" + std::to_string(i), "value" + std::to_string(i));
  EXPECT_EQ(s.size(), 1000u);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(s.get("key" + std::to_string(i)).value(),
              "value" + std::to_string(i));
}

// for_each_sorted is the determinism barrier digest/snapshot code must use:
// raw for_each walks hash stripes in hash order, which is not a canonical
// order. The barrier must visit every pair exactly once, in strict
// ascending key order, regardless of insertion order or backend.
TEST(MemStore, ForEachSortedVisitsKeysInAscendingOrder) {
  MemStore s;
  // Insertion order deliberately scrambled relative to key order.
  for (int i = 999; i >= 0; i -= 3)
    s.put("key" + std::to_string(i), "v" + std::to_string(i));
  for (int i = 1; i < 1000; i += 3)
    s.put("key" + std::to_string(i), "v" + std::to_string(i));
  for (int i = 2; i < 1000; i += 3)
    s.put("key" + std::to_string(i), "v" + std::to_string(i));

  std::vector<std::string> keys;
  std::string prev;
  s.for_each_sorted([&](std::string_view k, std::string_view v) {
    EXPECT_LT(prev, std::string(k)) << "visit order not strictly ascending";
    prev = std::string(k);
    EXPECT_EQ(v, "v" + std::string(k.substr(3)));
    keys.emplace_back(k);
  });
  EXPECT_EQ(keys.size(), 1000u);
}

class PageDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pagedb_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "db.pages").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  PageDbConfig config(std::size_t cache_pages = 64,
                      std::uint32_t buckets = 64) {
    PageDbConfig c;
    c.path = path_;
    c.cache_pages = cache_pages;
    c.bucket_count = buckets;
    return c;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(PageDbTest, PutGetUpdateSameSize) {
  PageDb db(config());
  db.put("alpha", "11111");
  EXPECT_EQ(db.get("alpha").value(), "11111");
  db.put("alpha", "22222");  // same length: in-place overwrite
  EXPECT_EQ(db.get("alpha").value(), "22222");
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(PageDbTest, UpdateDifferentSizeAppendsNewVersion) {
  PageDb db(config());
  db.put("k", "short");
  db.put("k", "a much longer value than before");
  EXPECT_EQ(db.get("k").value(), "a much longer value than before");
  EXPECT_EQ(db.size(), 1u);
  db.put("k", "s");
  EXPECT_EQ(db.get("k").value(), "s");
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(PageDbTest, MissingKeyReturnsNullopt) {
  PageDb db(config());
  EXPECT_FALSE(db.get("nope").has_value());
  EXPECT_FALSE(db.contains("nope"));
}

TEST_F(PageDbTest, PersistsAcrossReopenAfterCheckpoint) {
  {
    PageDb db(config());
    for (int i = 0; i < 200; ++i)
      db.put("key" + std::to_string(i), "value" + std::to_string(i));
    db.checkpoint();
  }
  PageDb db2(config());
  EXPECT_EQ(db2.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(db2.get("key" + std::to_string(i)).value(),
              "value" + std::to_string(i));
}

TEST_F(PageDbTest, WalRecoversUncheckpointedWrites) {
  {
    PageDb db(config());
    db.put("durable", "yes");
    db.checkpoint();
    db.put("in-wal-only", "recovered");
    // Destructor checkpoints, so simulate a crash instead: copy the WAL
    // aside is not possible here — we verify the WAL path by writing and
    // NOT calling checkpoint, then replaying on a fresh instance below.
  }
  // The destructor checkpointed; the data must be there either way.
  PageDb db2(config());
  EXPECT_EQ(db2.get("in-wal-only").value(), "recovered");
}

TEST_F(PageDbTest, WalReplayAfterSimulatedCrash) {
  // Build a database, checkpoint, then append writes and "crash" by copying
  // the files mid-flight (before checkpoint truncates the WAL).
  {
    PageDb db(config());
    db.put("base", "committed");
    db.checkpoint();
    db.put("tail1", "wal-1");
    db.put("tail2", "wal-2");
    db.commit_wave();  // group commit: the tail is in the WAL, fsynced
    // Snapshot the crash state: data file lacks tail writes (they live in
    // the cache + WAL), WAL holds them.
    fs::copy_file(path_, path_ + ".crash", fs::copy_options::overwrite_existing);
    fs::copy_file(path_ + ".wal", path_ + ".crash.wal",
                  fs::copy_options::overwrite_existing);
  }
  // Restore the crash snapshot over the cleanly-closed files.
  fs::copy_file(path_ + ".crash", path_, fs::copy_options::overwrite_existing);
  fs::copy_file(path_ + ".crash.wal", path_ + ".wal",
                fs::copy_options::overwrite_existing);

  PageDb db2(config());
  EXPECT_EQ(db2.get("base").value(), "committed");
  EXPECT_EQ(db2.get("tail1").value(), "wal-1");
  EXPECT_EQ(db2.get("tail2").value(), "wal-2");
  EXPECT_GE(db2.page_stats().wal_replayed, 2u);
}

TEST_F(PageDbTest, BucketChainsGrowBeyondOnePage) {
  // One bucket forces every record into a single chain; values sized so the
  // chain must span multiple pages.
  PageDb db(config(/*cache_pages=*/8, /*buckets=*/1));
  std::string big(500, 'x');
  for (int i = 0; i < 50; ++i) db.put("chain" + std::to_string(i), big);
  EXPECT_EQ(db.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(db.get("chain" + std::to_string(i)).value(), big);
}

TEST_F(PageDbTest, TinyCacheForcesEviction) {
  PageDb db(config(/*cache_pages=*/2, /*buckets=*/32));
  for (int i = 0; i < 300; ++i)
    db.put("evict" + std::to_string(i), "v" + std::to_string(i));
  for (int i = 0; i < 300; ++i)
    ASSERT_EQ(db.get("evict" + std::to_string(i)).value(),
              "v" + std::to_string(i));
  EXPECT_GT(db.page_stats().cache_misses, 0u);
  EXPECT_GT(db.page_stats().pages_flushed, 0u);
}

// Same determinism-barrier contract as MemStore, on the durable backend,
// whose raw for_each order depends on bucket hashing AND write history
// (resized updates relocate records). Key order must come out canonical.
TEST_F(PageDbTest, ForEachSortedVisitsKeysInAscendingOrder) {
  PageDb db(config(/*cache_pages=*/4, /*buckets=*/8));
  for (int i = 99; i >= 0; --i)
    db.put("key" + std::to_string(i), "first");
  // Resize half the values so their records relocate within the pages.
  for (int i = 0; i < 100; i += 2)
    db.put("key" + std::to_string(i), "resized-value-" + std::to_string(i));

  std::string prev;
  std::size_t count = 0;
  db.for_each_sorted([&](std::string_view k, std::string_view) {
    EXPECT_LT(prev, std::string(k)) << "visit order not strictly ascending";
    prev = std::string(k);
    ++count;
  });
  EXPECT_EQ(count, 100u);
}

TEST_F(PageDbTest, RecordLargerThanPageThrows) {
  PageDb db(config());
  std::string huge(PageDb::kPageSize, 'x');
  EXPECT_THROW(db.put("huge", huge), std::runtime_error);
}

TEST_F(PageDbTest, StatsCountKvOperations) {
  PageDb db(config());
  db.put("a", "1");
  (void)db.get("a");
  (void)db.get("b");
  auto st = db.stats();
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.reads, 2u);
  EXPECT_EQ(st.read_misses, 1u);
}

TEST_F(PageDbTest, CorruptHeaderRejected) {
  {
    PageDb db(config());
    db.put("x", "y");
  }
  // Stomp the magic number.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const char garbage[8] = {0};
  std::fwrite(garbage, 1, 8, f);
  std::fclose(f);
  EXPECT_THROW(PageDb db2(config()), std::runtime_error);
}

TEST_F(PageDbTest, EmptyValueSupported) {
  PageDb db(config());
  db.put("empty", "");
  auto v = db.get("empty");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

// ---------------------------------------------------------------------------
// Wal: checksummed group-commit log.
// ---------------------------------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "test.wal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalConfig config(Env* env = nullptr) {
    WalConfig c;
    c.path = path_;
    c.env = env;
    return c;
  }

  static Bytes payload(int i, std::size_t len = 16) {
    Bytes b(len);
    for (std::size_t j = 0; j < len; ++j)
      b[j] = static_cast<std::uint8_t>(i + static_cast<int>(j));
    return b;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(WalTest, AppendCommitReplayRoundTrip) {
  {
    Wal w(config());
    w.replay([](std::uint64_t, BytesView) { FAIL() << "fresh log"; });
    for (int i = 0; i < 5; ++i) EXPECT_EQ(w.append(BytesView(payload(i))),
                                          static_cast<std::uint64_t>(i + 1));
    w.commit();
  }
  Wal w2(config());
  std::vector<std::pair<std::uint64_t, Bytes>> seen;
  w2.replay([&](std::uint64_t lsn, BytesView p) {
    seen.emplace_back(lsn, Bytes(p.begin(), p.end()));
  });
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[i].first, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(seen[i].second, payload(i));
  }
  EXPECT_EQ(w2.next_lsn(), 6u);
  EXPECT_FALSE(w2.stats().tail_truncated);
}

TEST_F(WalTest, UncommittedAppendsAreInvisibleAfterReopen) {
  {
    Wal w(config());
    w.replay([](std::uint64_t, BytesView) {});
    w.append(BytesView(payload(1)));
    w.commit();
    w.append(BytesView(payload(2)));  // buffered, never committed: "crash"
  }
  Wal w2(config());
  std::size_t n = 0;
  w2.replay([&](std::uint64_t, BytesView) { ++n; });
  EXPECT_EQ(n, 1u);  // only the committed record survived
}

TEST_F(WalTest, TornTailTruncatedAtFirstBadRecord) {
  {
    Wal w(config());
    w.replay([](std::uint64_t, BytesView) {});
    for (int i = 0; i < 4; ++i) w.append(BytesView(payload(i, 64)));
    w.commit();
  }
  // Flip one payload byte inside the THIRD record: records 1-2 must replay,
  // 3-4 must be cut (a CRC mismatch ends usable history).
  const std::uint64_t header = 20;  // magic + len + lsn + crc
  const std::uint64_t record = header + 64;
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(2 * record + header + 10), SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
  }
  Wal w2(config());
  std::size_t n = 0;
  w2.replay([&](std::uint64_t, BytesView) { ++n; });
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(w2.stats().tail_truncated);
  EXPECT_EQ(w2.stats().truncated_bytes, 2 * record);
  // The log is usable again: appends resume with a contiguous LSN.
  EXPECT_EQ(w2.append(BytesView(payload(9))), 3u);
  w2.commit();
}

TEST_F(WalTest, GroupCommitIsOneWriteOneSyncPerWave) {
  FaultyEnv env(Env::real());
  Wal w(config(&env));
  w.replay([](std::uint64_t, BytesView) {});
  auto before = env.counters();
  for (int i = 0; i < 32; ++i) w.append(BytesView(payload(i)));
  auto mid = env.counters();
  EXPECT_EQ(mid.writes, before.writes);  // append() only buffers
  w.commit();
  auto after = env.counters();
  EXPECT_EQ(after.writes, before.writes + 1);  // the whole wave, one write
  EXPECT_EQ(after.syncs, before.syncs + 1);    // and one fsync
  w.commit();  // nothing pending: no-op
  EXPECT_EQ(env.counters().writes, after.writes);
  EXPECT_EQ(env.counters().syncs, after.syncs);
}

TEST_F(WalTest, FsyncFailureIsFailStop) {
  StorageFaultPlan plan;
  plan.fail_sync_number = 1;
  FaultyEnv env(Env::real(), plan);
  Wal w(config(&env));
  w.replay([](std::uint64_t, BytesView) {});
  w.append(BytesView(payload(0)));
  try {
    w.commit();
    FAIL() << "commit must surface the fsync error";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrc::kSyncFailed);
    EXPECT_STREQ(storage_errc_name(e.code()), "storage_sync_failed");
  }
  EXPECT_TRUE(w.failed());
  // Fail-stop: every further operation refuses (no silent fsync retry).
  try {
    w.append(BytesView(payload(1)));
    FAIL() << "fail-stop WAL must refuse appends";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrc::kFailStop);
  }
}

// ---------------------------------------------------------------------------
// Seeded crash-point matrix: kill the "machine" after every write boundary
// of a group-committed workload, reboot, and recover. Committed waves must
// be complete; anything visible must be bytes the workload actually wrote.
// ---------------------------------------------------------------------------

TEST_F(PageDbTest, CrashPointMatrixPreservesCommittedWaves) {
  constexpr int kWaves = 3;
  constexpr int kPutsPerWave = 5;
  auto key = [](int w, int i) {
    return "w" + std::to_string(w) + "k" + std::to_string(i);
  };
  auto value = [](int w, int i) {
    return "v" + std::to_string(w) + "-" + std::to_string(i);
  };

  std::uint64_t boundaries_hit = 0;
  for (std::uint64_t crash_at = 1;; ++crash_at) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    StorageFaultPlan plan;
    plan.crash_after_writes = crash_at;
    plan.torn_write_percent = 50;  // the dying write persists only half
    FaultyEnv env(Env::real(), plan);

    int committed = 0;
    try {
      PageDbConfig c = config();
      c.env = &env;
      PageDb db(c);
      for (int w = 0; w < kWaves; ++w) {
        for (int i = 0; i < kPutsPerWave; ++i) db.put(key(w, i), value(w, i));
        db.commit_wave();
        committed = w + 1;
      }
      db.checkpoint();
    } catch (const StorageError&) {
      // power died mid-workload; fall through to recovery below
    }
    if (!env.crashed()) break;  // past the last write: matrix complete
    ++boundaries_hit;

    env.revive();
    PageDbConfig c2 = config();
    c2.env = &env;
    try {
      PageDb db2(c2);
      for (int w = 0; w < committed; ++w)
        for (int i = 0; i < kPutsPerWave; ++i)
          ASSERT_EQ(db2.get(key(w, i)).value_or("<lost>"), value(w, i))
              << "committed wave " << w << " lost at crash point " << crash_at;
      // Uncommitted waves may be partially present (a torn commit persists a
      // valid prefix) but anything visible must be exactly what was written
      // — torn garbage must never replay.
      for (int w = committed; w < kWaves; ++w)
        for (int i = 0; i < kPutsPerWave; ++i) {
          auto v = db2.get(key(w, i));
          if (v.has_value()) {
            ASSERT_EQ(*v, value(w, i))
                << "garbage visible at crash point " << crash_at;
          }
        }
    } catch (const std::exception& e) {
      // The only acceptable recovery failure is a crash so early the data
      // file was never fully initialized — before any wave committed.
      ASSERT_EQ(committed, 0)
          << "recovery failed after committed data existed (crash point "
          << crash_at << "): " << e.what();
    }
  }
  // The workload spans init + several wave commits + checkpoint flushes;
  // the matrix must have exercised a healthy number of boundaries.
  EXPECT_GE(boundaries_hit, 5u);
}

}  // namespace
}  // namespace rdb::storage
