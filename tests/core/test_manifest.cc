/**
 * @file
 * Tests for the campaign journal (manifest.json).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "core/manifest.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

class ManifestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("syncperf_manifest_test_" + std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        file_ = dir_ / "manifest.json";
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    fs::path dir_;
    fs::path file_;
};

TEST(ConfigHasher, DistinguishesFieldsAndBoundaries)
{
    const auto digest = [](auto &&fill) {
        ConfigHasher h;
        fill(h);
        return h.digest();
    };
    EXPECT_NE(digest([](ConfigHasher &h) { h.add(1).add(2); }),
              digest([](ConfigHasher &h) { h.add(2).add(1); }));
    EXPECT_NE(digest([](ConfigHasher &h) { h.add("ab").add("c"); }),
              digest([](ConfigHasher &h) { h.add("a").add("bc"); }));
    EXPECT_NE(digest([](ConfigHasher &h) { h.add(0.25); }),
              digest([](ConfigHasher &h) { h.add(0.5); }));
    EXPECT_EQ(digest([](ConfigHasher &h) { h.add("x").add(3); }),
              digest([](ConfigHasher &h) { h.add("x").add(3); }));
}

TEST_F(ManifestTest, MissingFileLoadsEmpty)
{
    const auto loaded = Manifest::load(file_);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_TRUE(loaded.value().entries().empty());
    EXPECT_EQ(loaded.value().completeCount(), 0);
}

TEST_F(ManifestTest, RoundTripsCompletionsAndFailures)
{
    Manifest m(file_);
    m.setSystem("system_under_test");

    ManifestEntry done;
    done.key = "omp_barrier.csv";
    done.config_hash = 0xdeadbeefcafef00dULL;
    done.protocol_retries = 3;
    done.noise_retries = 1;
    done.max_cov = 0.125;
    m.recordComplete(done);
    m.recordFailure("omp_critical.csv", 42,
                    "io_error: disk on fire");
    ASSERT_TRUE(m.save().isOk());

    const auto loaded = Manifest::load(file_);
    ASSERT_TRUE(loaded.isOk());
    const Manifest &back = loaded.value();
    EXPECT_EQ(back.system(), "system_under_test");
    ASSERT_EQ(back.entries().size(), 2u);
    EXPECT_EQ(back.completeCount(), 1);
    EXPECT_EQ(back.failedCount(), 1);

    EXPECT_TRUE(
        back.isComplete("omp_barrier.csv", 0xdeadbeefcafef00dULL));
    const ManifestEntry &e = back.entries()[0];
    EXPECT_EQ(e.protocol_retries, 3);
    EXPECT_EQ(e.noise_retries, 1);
    EXPECT_DOUBLE_EQ(e.max_cov, 0.125);

    EXPECT_FALSE(back.isComplete("omp_critical.csv", 42));
    EXPECT_EQ(back.entries()[1].error, "io_error: disk on fire");
}

TEST_F(ManifestTest, HashMismatchIsNotComplete)
{
    Manifest m(file_);
    ManifestEntry done;
    done.key = "omp_barrier.csv";
    done.config_hash = 1;
    m.recordComplete(done);
    EXPECT_TRUE(m.isComplete("omp_barrier.csv", 1));
    EXPECT_FALSE(m.isComplete("omp_barrier.csv", 2));
    EXPECT_FALSE(m.isComplete("other.csv", 1));
}

TEST_F(ManifestTest, FailureThenCompletionReplacesEntry)
{
    Manifest m(file_);
    m.recordFailure("x.csv", 7, "transient");
    ManifestEntry done;
    done.key = "x.csv";
    done.config_hash = 7;
    m.recordComplete(done);
    ASSERT_EQ(m.entries().size(), 1u);
    EXPECT_TRUE(m.isComplete("x.csv", 7));
    EXPECT_TRUE(m.entries()[0].error.empty());
}

TEST_F(ManifestTest, CorruptFileIsAParseError)
{
    std::ofstream(file_) << "{\"experiments\": [";
    const auto loaded = Manifest::load(file_);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), ErrorCode::ParseError);
}

TEST_F(ManifestTest, SaveIsAtomic)
{
    Manifest m(file_);
    ManifestEntry done;
    done.key = "a.csv";
    done.config_hash = 1;
    m.recordComplete(done);
    ASSERT_TRUE(m.save().isOk());
    ASSERT_TRUE(m.save().isOk()); // overwrite in place
    EXPECT_FALSE(fs::exists(file_.string() + ".tmp"));

    // The journal on disk is well-formed JSON at all times.
    const auto loaded = Manifest::load(file_);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value().completeCount(), 1);
}

} // namespace
} // namespace syncperf::core
