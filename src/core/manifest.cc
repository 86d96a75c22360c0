/**
 * @file
 * Implementation of the campaign journal.
 */

#include "manifest.hh"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

constexpr int manifest_version = 1;

/** uint64 as a hex string: JSON numbers are doubles and cannot carry
 * 64 hash bits losslessly. */
std::string
hashToHex(std::uint64_t hash)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::uint64_t
hashFromHex(const std::string &text)
{
    return std::strtoull(text.c_str(), nullptr, 16);
}

/** One manifest.json entry. */
JsonValue
entryToJson(const ManifestEntry &entry)
{
    JsonValue e = JsonValue::object();
    e.set("key", JsonValue(entry.key));
    e.set("hash", JsonValue(hashToHex(entry.config_hash)));
    e.set("status", JsonValue(entry.complete ? "complete" : "failed"));
    if (!entry.complete)
        e.set("error", JsonValue(entry.error));
    if (entry.protocol_retries > 0)
        e.set("protocol_retries", JsonValue(entry.protocol_retries));
    if (entry.noise_retries > 0)
        e.set("noise_retries", JsonValue(entry.noise_retries));
    if (entry.max_cov > 0.0)
        e.set("max_cov", JsonValue(entry.max_cov));
    return e;
}

/** Inverse of entryToJson; false when the record carries no key. */
bool
entryFromJson(const JsonValue &e, ManifestEntry &entry)
{
    if (!e.isObject())
        return false;
    entry.key = e.stringOr("key", "");
    if (entry.key.empty())
        return false;
    entry.config_hash = hashFromHex(e.stringOr("hash", "0x0"));
    entry.complete = e.stringOr("status", "") == "complete";
    entry.error = e.stringOr("error", "");
    entry.protocol_retries =
        static_cast<int>(e.numberOr("protocol_retries", 0));
    entry.noise_retries =
        static_cast<int>(e.numberOr("noise_retries", 0));
    entry.max_cov = e.numberOr("max_cov", 0.0);
    return true;
}

} // namespace

ConfigHasher &
ConfigHasher::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (v >> (i * 8)) & 0xFF;
        hash_ *= 0x100000001b3ULL;
    }
    return *this;
}

ConfigHasher &
ConfigHasher::add(double v)
{
    return add(std::bit_cast<std::uint64_t>(v));
}

ConfigHasher &
ConfigHasher::add(std::string_view v)
{
    for (char c : v) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 0x100000001b3ULL;
    }
    // Separator so {"ab","c"} and {"a","bc"} hash differently.
    hash_ ^= 0xFF;
    hash_ *= 0x100000001b3ULL;
    return *this;
}

Manifest::Manifest(fs::path file) : file_(std::move(file)) {}

// Moves transfer the journal, not the lock: the source must be
// quiescent (they exist so Result<Manifest> and load() can hand a
// journal over, never to move one mid-campaign).
Manifest::Manifest(Manifest &&other) noexcept
    : file_(std::move(other.file_)), system_(std::move(other.system_)),
      entries_(std::move(other.entries_))
{
}

Manifest &
Manifest::operator=(Manifest &&other) noexcept
{
    if (this != &other) {
        file_ = std::move(other.file_);
        system_ = std::move(other.system_);
        entries_ = std::move(other.entries_);
    }
    return *this;
}

Result<Manifest>
Manifest::load(const fs::path &file)
{
    Manifest manifest(file);
    std::ifstream in(file);
    if (!in)
        return manifest; // first run: empty journal

    std::ostringstream text;
    text << in.rdbuf();
    auto doc = parseJson(text.str());
    if (!doc.isOk()) {
        return Status::error(ErrorCode::ParseError,
                             "corrupt manifest {}: {}", file.string(),
                             doc.status().message());
    }
    const JsonValue &root = doc.value();
    if (!root.isObject()) {
        return Status::error(ErrorCode::ParseError,
                             "corrupt manifest {}: not an object",
                             file.string());
    }
    manifest.system_ = root.stringOr("system", "");

    const JsonValue *experiments = root.find("experiments");
    if (experiments && experiments->isArray()) {
        for (const JsonValue &e : experiments->asArray()) {
            ManifestEntry entry;
            if (entryFromJson(e, entry))
                manifest.entries_.push_back(std::move(entry));
        }
    }
    return manifest;
}

ManifestEntry *
Manifest::findEntry(std::string_view key)
{
    for (auto &entry : entries_) {
        if (entry.key == key)
            return &entry;
    }
    return nullptr;
}

bool
Manifest::isComplete(std::string_view key, std::uint64_t hash) const
{
    std::scoped_lock lock(mutex_);
    for (const auto &entry : entries_) {
        if (entry.key == key)
            return entry.complete && entry.config_hash == hash;
    }
    return false;
}

void
Manifest::recordComplete(ManifestEntry entry)
{
    entry.complete = true;
    entry.error.clear();
    std::scoped_lock lock(mutex_);
    if (ManifestEntry *existing = findEntry(entry.key)) {
        *existing = std::move(entry);
    } else {
        entries_.push_back(std::move(entry));
    }
}

void
Manifest::recordFailure(std::string_view key, std::uint64_t hash,
                        std::string_view error)
{
    ManifestEntry entry;
    entry.key = key;
    entry.config_hash = hash;
    entry.complete = false;
    entry.error = error;
    std::scoped_lock lock(mutex_);
    if (ManifestEntry *existing = findEntry(entry.key)) {
        *existing = std::move(entry);
    } else {
        entries_.push_back(std::move(entry));
    }
}

Status
Manifest::save() const
{
    std::scoped_lock lock(mutex_);
    JsonValue root = JsonValue::object();
    root.set("version", JsonValue(manifest_version));
    root.set("system", JsonValue(system_));
    JsonValue experiments = JsonValue::array();
    for (const auto &entry : entries_)
        experiments.push(entryToJson(entry));
    root.set("experiments", std::move(experiments));

    AtomicFile out;
    if (Status s = out.open(file_); !s.isOk())
        return s;
    out.stream() << root.dump(2) << "\n";
    return out.commit();
}

int
Manifest::completeCount() const
{
    std::scoped_lock lock(mutex_);
    int n = 0;
    for (const auto &entry : entries_)
        n += entry.complete ? 1 : 0;
    return n;
}

int
Manifest::failedCount() const
{
    std::scoped_lock lock(mutex_);
    int n = 0;
    for (const auto &entry : entries_)
        n += entry.complete ? 0 : 1;
    return n;
}

} // namespace syncperf::core
