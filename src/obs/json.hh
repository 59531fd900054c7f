/**
 * @file
 * Minimal JSON document model with a writer and a strict parser.
 *
 * The observability layer emits machine-readable artifacts (the stats
 * registry dump, the run report) and the tests parse them back, so we
 * need both directions but only the JSON subset we generate: objects,
 * arrays, strings, numbers, booleans and null. No dependency beyond
 * the standard library; a number is an exact unsigned 64-bit integer
 * or a double, so 64-bit counters survive a round trip. Numbers are
 * written as printf's `%llu` / `%.9g` would write them and read with
 * JSON's strict number grammar; a malformed document of any kind
 * throws FatalError.
 *
 * Node layout: a one-byte tag and one 8-byte payload (16 B, asserted
 * below). A bool, an integer or a double sits in the payload; a
 * string, an array or an object is one owned heap block (the
 * std::string, the element vector, the member vector) that the
 * parser sizes exactly; a frozen value is a pointer to a shared node
 * with an intrusive atomic reference count.
 *
 * A value can also be *frozen*: an immutable node shared by every
 * copy, which holds its compact rendering and, at rest, nothing
 * else. The service keeps cached reports this way, so a cache entry
 * costs its bytes, handing one to a response is a refcount bump and
 * putting it on the wire is a byte copy.
 *
 *  - Json::freeze(tree) renders the tree compactly and keeps only
 *    the bytes. dump() of any document that contains the frozen
 *    value appends them verbatim. dump(indent > 0) re-indents them
 *    (they are the tree's own rendering, so the output is too) and
 *    leaves no tree behind.
 *  - Json::fromCompact(text) does the same over bytes that are some
 *    value's dump(), such as a peer's response frame. They are
 *    relayed unchecked: a malformed text throws FatalError from the
 *    first read.
 *  - Readers see plain value semantics. The first read of a frozen
 *    value (kind, get, items, ...) parses the bytes into a tree that
 *    the shared node keeps from then on (once, thread-safe). A
 *    mutation (set, push) first gives the value a tree of its own
 *    (copy-on-write), so the other copies never change.
 */

#ifndef STITCH_OBS_JSON_HH
#define STITCH_OBS_JSON_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace stitch::obs
{

/** One JSON value (recursive). Objects keep insertion order. */
class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Int,    ///< exact 64-bit (unsigned range used by counters)
        Double,
        String,
        Array,
        Object,
    };

    using Members = std::vector<std::pair<std::string, Json>>;

    Json() = default;
    Json(bool b) : tag_(Tag::Bool), p_{.b = b} {}
    Json(std::uint64_t v) : tag_(Tag::Int), p_{.u = v} {}
    Json(int v)
        : tag_(Tag::Int), p_{.u = static_cast<std::uint64_t>(v)}
    {}
    Json(double v) : tag_(Tag::Double), p_{.d = v} {}
    Json(std::string s)
        : tag_(Tag::String), p_{.str = new std::string(std::move(s))}
    {}
    Json(const char *s)
        : tag_(Tag::String), p_{.str = new std::string(s)}
    {}

    Json(const Json &other);
    Json(Json &&other) noexcept : tag_(other.tag_), p_(other.p_)
    {
        other.tag_ = Tag::Null;
    }
    Json &
    operator=(const Json &other)
    {
        return *this = Json(other);
    }
    Json &
    operator=(Json &&other) noexcept
    {
        // Swap through a temporary, which releases the old payload
        // last: safe when `other` lives inside this value.
        Json old(std::move(other));
        std::swap(tag_, old.tag_);
        std::swap(p_, old.p_);
        return *this;
    }
    ~Json()
    {
        if (tag_ >= Tag::String)
            release();
    }

    static Json array();
    static Json object();

    /** An immutable value holding only the compact rendering of
     *  `tree`, shared among its copies (see the file comment). */
    static Json freeze(const Json &tree);

    /** A frozen value over the compact JSON text of some value's
     *  dump(); the tree is parsed on the first read. */
    static Json fromCompact(std::string text);

    Kind kind() const { return static_cast<Kind>(view().tag_); }
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

    /** Object access. set() replaces; get() fatals when missing;
     *  items() of a non-object is empty. */
    void set(const std::string &key, Json v);
    bool has(const std::string &key) const;
    const Json &get(const std::string &key) const;
    const Members &items() const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Strict parse; fatal()s on malformed input. */
    static Json parse(const std::string &text);

  private:
    friend class JsonParser;
    struct Frozen;

    /** Kind, plus the shared frozen node. The tags from String on
     *  own a heap block or a reference (see release()). */
    enum class Tag : std::uint8_t
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
        Frozen,
    };
    static_assert(static_cast<int>(Tag::Object) ==
                  static_cast<int>(Kind::Object));

    /** The payload; `tag_` names the live member. */
    union Payload
    {
        bool b;
        std::uint64_t u;
        double d;
        std::string *str;
        std::vector<Json> *array;
        Members *object;
        Frozen *frozen;
    };

    /** The tree to read: the shared node's when frozen, else this. */
    const Json &
    view() const
    {
        return tag_ == Tag::Frozen ? frozenTree() : *this;
    }
    const Json &frozenTree() const;
    /** Copy-on-write: replace a frozen value by its own tree. */
    void thaw();
    /** Free the heap block or drop the frozen reference. */
    void release() noexcept;
    void dumpTo(std::string &out, int indent, int depth) const;

    Tag tag_ = Tag::Null;
    Payload p_{.u = 0};
};

static_assert(sizeof(Json) <= 16,
              "a JSON node is a one-byte tag and an 8-byte payload");

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
