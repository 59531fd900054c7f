/**
 * @file
 * Minimal JSON document model with a writer and a strict parser.
 *
 * The observability layer emits machine-readable artifacts (the stats
 * registry dump, the run report) and the tests parse them back, so we
 * need both directions but only the JSON subset we generate: objects,
 * arrays, strings, numbers, booleans and null. No dependency beyond
 * the standard library; numbers are stored as double plus an exact
 * integer flag so 64-bit counters survive a round trip. Numbers are
 * written as printf's `%llu` / `%.9g` would write them and read with
 * JSON's strict number grammar; a malformed document of any kind
 * throws FatalError.
 *
 * A value can also be *frozen*: an immutable node shared by every
 * copy, which carries its compact rendering. The service keeps cached
 * reports this way, so handing one to a response is a refcount bump
 * and putting it on the wire is a byte copy.
 *
 *  - Json::freeze(tree) renders the tree compactly once. dump() of
 *    any document that contains the frozen value appends those bytes
 *    verbatim; dump(indent > 0) still renders the tree, so indented
 *    artifacts do not change.
 *  - Json::fromCompact(text) holds bytes and no tree yet. The tree is
 *    parsed on the first read (once, thread-safe), so a value that is
 *    only relayed is never parsed. A malformed text throws FatalError
 *    from that first read.
 *  - Readers see plain value semantics. A mutation (set, push) first
 *    copies the shared tree into the value (copy-on-write), so the
 *    other copies never change.
 */

#ifndef STITCH_OBS_JSON_HH
#define STITCH_OBS_JSON_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stitch::obs
{

/** One JSON value (recursive). Objects keep insertion order. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    ///< exact 64-bit (unsigned range used by counters)
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(std::uint64_t v) : kind_(Kind::Int), int_(v) {}
    Json(int v)
        : kind_(Kind::Int), int_(static_cast<std::uint64_t>(v))
    {}
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}

    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    /** An immutable value sharing `tree` among its copies, with the
     *  compact rendering computed now (see the file comment). */
    static Json freeze(Json tree);

    /** A frozen value over compact JSON text; the tree is parsed on
     *  the first read. */
    static Json fromCompact(std::string text);

    Kind kind() const { return view().kind_; }
    bool isNull() const { return kind() == Kind::Null; }
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }

    bool asBool() const;
    std::uint64_t asUint() const;
    double asDouble() const; ///< Int values convert implicitly
    const std::string &asString() const;

    /** Array access. */
    void push(Json v);
    std::size_t size() const;
    const Json &at(std::size_t i) const;

    /** Object access. set() replaces; get() fatals when missing. */
    void set(const std::string &key, Json v);
    bool has(const std::string &key) const;
    const Json &get(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &items() const
    {
        return view().object_;
    }

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Strict parse; fatal()s on malformed input. */
    static Json parse(const std::string &text);

  private:
    friend class JsonParser;
    struct Frozen;

    /** The tree to read: the shared node's when frozen, else this. */
    const Json &
    view() const
    {
        return frozen_ ? frozenTree() : *this;
    }
    const Json &frozenTree() const;
    /** Copy-on-write: replace a frozen value by its own tree copy. */
    void thaw();
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::uint64_t int_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
    std::shared_ptr<const Frozen> frozen_; ///< set only when frozen
};

/**
 * Open an artifact file for writing, creating missing parent
 * directories first (a `--report=runs/today/r.json` should not
 * silently produce nothing because `runs/today/` does not exist yet).
 * Throws fault::ConfigError when the path cannot be created or
 * opened, so harnesses surface a typed, actionable failure instead of
 * exiting with an unwritten artifact.
 */
std::FILE *openArtifactFile(const std::string &path);

/** Pretty-print `doc` to `path` (trailing newline); throws
 *  fault::ConfigError when `path` cannot be created or written. */
void writeJsonFile(const std::string &path, const Json &doc);

} // namespace stitch::obs

#endif // STITCH_OBS_JSON_HH
