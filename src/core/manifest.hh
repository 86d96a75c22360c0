/**
 * @file
 * Per-system campaign journal backing checkpoint/resume.
 *
 * Each system's results directory carries a manifest.json that
 * records, for every experiment, whether it completed (with the hash
 * of the configuration that produced it) or failed (with the cause).
 * The manifest is rewritten atomically after every experiment, so a
 * campaign killed at any instant -- including kill -9 -- leaves a
 * consistent journal that a --resume run can trust. See
 * docs/robustness.md for the on-disk format.
 */

#ifndef SYNCPERF_CORE_MANIFEST_HH
#define SYNCPERF_CORE_MANIFEST_HH

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace syncperf::core
{

/**
 * FNV-1a accumulator over the fields that define an experiment; a
 * completed journal entry is only honored by --resume when its hash
 * matches, so changing any sweep or protocol knob reruns the point.
 */
class ConfigHasher
{
  public:
    ConfigHasher &add(std::uint64_t v);
    ConfigHasher &add(int v) { return add(static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(v))); }
    ConfigHasher &add(double v);
    ConfigHasher &add(std::string_view v);

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** One journaled experiment. */
struct ManifestEntry
{
    std::string key;                ///< CSV file name (unique per system)
    std::uint64_t config_hash = 0;  ///< ConfigHasher digest
    bool complete = false;          ///< completed vs failed
    std::string error;              ///< failure cause (failed only)
    int protocol_retries = 0;       ///< invalid-attempt retries, summed
    int noise_retries = 0;          ///< CoV-gate re-measures, summed
    double max_cov = 0.0;           ///< worst per-point CoV observed
};

/**
 * The journal for one system's campaign.
 *
 * Record/query/save are individually thread-safe (internally
 * locked), so a parallel campaign may consult the journal from any
 * thread. The campaign driver nevertheless funnels all mutation
 * through its ordered commit step, which is what keeps the entry
 * order -- and therefore the saved file -- byte-identical across
 * worker counts; the lock is the safety net, not the design.
 */
class Manifest
{
  public:
    /** An empty journal that will save to @p file. */
    explicit Manifest(std::filesystem::path file);

    Manifest(Manifest &&other) noexcept;
    Manifest &operator=(Manifest &&other) noexcept;

    /**
     * Load an existing journal; a missing file yields an empty
     * journal (first run), a corrupt one a ParseError.
     */
    static Result<Manifest> load(const std::filesystem::path &file);

    /** True when @p key completed under the same configuration. */
    bool isComplete(std::string_view key, std::uint64_t hash) const;

    /** Journal a completed experiment (replacing any prior entry). */
    void recordComplete(ManifestEntry entry);

    /** Journal a failed experiment (replacing any prior entry). */
    void recordFailure(std::string_view key, std::uint64_t hash,
                       std::string_view error);

    /** Atomically rewrite the journal file. */
    Status save() const;

    /** System name recorded in the journal header. */
    void setSystem(std::string_view name) { system_ = name; }
    const std::string &system() const { return system_; }

    /** Direct entry access; only safe while no other thread is
     * recording (e.g. after a campaign has finished). */
    const std::vector<ManifestEntry> &entries() const
    {
        return entries_;
    }

    int completeCount() const;
    int failedCount() const;

    const std::filesystem::path &file() const { return file_; }

  private:
    ManifestEntry *findEntry(std::string_view key);

    std::filesystem::path file_;
    std::string system_;
    std::vector<ManifestEntry> entries_;
    mutable std::mutex mutex_; ///< guards entries_ (see class comment)
};

} // namespace syncperf::core

#endif // SYNCPERF_CORE_MANIFEST_HH
