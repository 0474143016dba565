/**
 * @file
 * Bundle: the typed key/value state container used for activity state
 * snapshots, mirroring android.os.Bundle.
 *
 * RCHDroid snapshots the shadow-state activity through
 * onSaveInstanceState into a Bundle and replays that Bundle when
 * initialising the sunny-state instance (paper §3.3); the Android-10
 * baseline uses the same mechanism across a restart.
 */
#ifndef RCHDROID_OS_BUNDLE_H
#define RCHDROID_OS_BUNDLE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace rchdroid {

class Bundle;

/** The value types a Bundle can hold. */
using BundleValue = std::variant<std::int64_t,
                                 double,
                                 bool,
                                 std::string,
                                 std::vector<std::int64_t>,
                                 std::vector<std::string>,
                                 std::shared_ptr<const Bundle>>;

/**
 * Recursive, typed key/value map.
 *
 * Getter misses return the supplied default, matching android.os.Bundle
 * semantics (this forgiving behaviour matters: the paper's unfixable apps
 * are exactly the ones whose state never lands in any bundle or view).
 *
 * Nested bundles are immutable once put: they are held as
 * `shared_ptr<const Bundle>`, so one nested bundle may sit in several
 * containers at once (a view's memoised saved state is linked into
 * every snapshot that takes it, DESIGN.md §5d) and none can change it
 * under the others.
 */
class Bundle
{
  public:
    Bundle() = default;

    /** @name Typed setters
     * @{
     */
    void putInt(const std::string &key, std::int64_t value);
    void putDouble(const std::string &key, double value);
    void putBool(const std::string &key, bool value);
    void putString(const std::string &key, std::string value);
    void putIntVector(const std::string &key, std::vector<std::int64_t> value);
    void putStringVector(const std::string &key, std::vector<std::string> value);
    void putBundle(const std::string &key, Bundle value);
    /** Link an existing immutable bundle; no copy is made. */
    void putBundle(const std::string &key, std::shared_ptr<const Bundle> value);
    /** @} */

    /** @name Typed getters with defaults
     * @{
     */
    std::int64_t getInt(const std::string &key, std::int64_t fallback = 0) const;
    double getDouble(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;
    std::string getString(const std::string &key,
                          const std::string &fallback = {}) const;
    std::vector<std::int64_t> getIntVector(const std::string &key) const;
    std::vector<std::string> getStringVector(const std::string &key) const;
    /**
     * Nested bundle, read in place; a shared empty bundle when missing.
     * The reference lives as long as this bundle's entry does.
     */
    const Bundle &getBundle(const std::string &key) const;
    /** @} */

    bool contains(const std::string &key) const;
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    void remove(const std::string &key);
    void clear() { entries_.clear(); }

    /** Keys in sorted order (map iteration order), for diffing in tests. */
    std::vector<std::string> keys() const;

    /**
     * Approximate serialized footprint in bytes, used by the memory model
     * to charge for retained saved-state.
     */
    std::size_t approximateSizeBytes() const;

    /** Deep structural equality. */
    bool operator==(const Bundle &other) const;

    /** Raw entry access for Parcel serialization. */
    const std::map<std::string, BundleValue> &entries() const
    { return entries_; }

  private:
    std::map<std::string, BundleValue> entries_;
};

} // namespace rchdroid

#endif // RCHDROID_OS_BUNDLE_H
