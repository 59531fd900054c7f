#include "obs/json.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string_view>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace stitch::obs
{

/** The shared node behind every copy of a frozen value. */
struct Json::Frozen
{
    std::atomic<std::uint32_t> refs{1};
    std::string compact;
    std::once_flag built;
    Json tree; ///< parsed from `compact` on the first read

    const Json &
    view()
    {
        std::call_once(built, [this] { tree = Json::parse(compact); });
        return tree;
    }
};

Json::Json(const Json &other) : tag_(other.tag_), p_(other.p_)
{
    switch (tag_) {
      case Tag::String:
        p_.str = new std::string(*other.p_.str);
        break;
      case Tag::Array:
        p_.array = new std::vector<Json>(*other.p_.array);
        break;
      case Tag::Object:
        p_.object = new Members(*other.p_.object);
        break;
      case Tag::Frozen:
        p_.frozen->refs.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
}

void
Json::release() noexcept
{
    switch (tag_) {
      case Tag::String:
        delete p_.str;
        break;
      case Tag::Array:
        delete p_.array;
        break;
      case Tag::Object:
        delete p_.object;
        break;
      case Tag::Frozen:
        if (p_.frozen->refs.fetch_sub(1, std::memory_order_acq_rel) ==
            1)
            delete p_.frozen;
        break;
      default:
        break;
    }
}

Json
Json::array()
{
    Json j;
    j.tag_ = Tag::Array;
    j.p_.array = new std::vector<Json>();
    return j;
}

Json
Json::object()
{
    Json j;
    j.tag_ = Tag::Object;
    j.p_.object = new Members();
    return j;
}

Json
Json::freeze(const Json &tree)
{
    if (tree.tag_ == Tag::Frozen)
        return tree;
    Json frozen = fromCompact(tree.dump());
    frozen.p_.frozen->compact.shrink_to_fit(); // the entry's footprint
    return frozen; // bytes only: the node keeps nothing of `tree`
}

Json
Json::fromCompact(std::string text)
{
    Json frozen;
    frozen.p_.frozen = new Frozen;
    frozen.tag_ = Tag::Frozen;
    frozen.p_.frozen->compact = std::move(text);
    return frozen;
}

const Json &
Json::frozenTree() const
{
    return p_.frozen->view();
}

void
Json::thaw()
{
    // Parse a private tree rather than building the shared one: the
    // other copies keep holding bytes only.
    if (tag_ == Tag::Frozen)
        *this = Json::parse(p_.frozen->compact);
}

bool
Json::asBool() const
{
    const Json &v = view();
    STITCH_ASSERT(v.tag_ == Tag::Bool, "JSON value is not a bool");
    return v.p_.b;
}

std::uint64_t
Json::asUint() const
{
    const Json &v = view();
    if (v.tag_ == Tag::Double) {
        STITCH_ASSERT(v.p_.d >= 0 && v.p_.d == std::floor(v.p_.d),
                      "JSON number is not an exact non-negative int");
        return static_cast<std::uint64_t>(v.p_.d);
    }
    STITCH_ASSERT(v.tag_ == Tag::Int, "JSON value is not an integer");
    return v.p_.u;
}

double
Json::asDouble() const
{
    const Json &v = view();
    if (v.tag_ == Tag::Int)
        return static_cast<double>(v.p_.u);
    STITCH_ASSERT(v.tag_ == Tag::Double, "JSON value is not a number");
    return v.p_.d;
}

const std::string &
Json::asString() const
{
    const Json &v = view();
    STITCH_ASSERT(v.tag_ == Tag::String, "JSON value is not a string");
    return *v.p_.str;
}

void
Json::push(Json v)
{
    thaw();
    STITCH_ASSERT(tag_ == Tag::Array, "push on a non-array");
    p_.array->push_back(std::move(v));
}

std::size_t
Json::size() const
{
    const Json &v = view();
    if (v.tag_ == Tag::Array)
        return v.p_.array->size();
    return v.tag_ == Tag::Object ? v.p_.object->size() : 0;
}

const Json &
Json::at(std::size_t i) const
{
    const Json &v = view();
    STITCH_ASSERT(v.tag_ == Tag::Array && i < v.p_.array->size(),
                  "JSON array index out of range");
    return (*v.p_.array)[i];
}

void
Json::set(const std::string &key, Json v)
{
    thaw();
    STITCH_ASSERT(tag_ == Tag::Object || tag_ == Tag::Null,
                  "set on a non-object");
    if (tag_ == Tag::Null) {
        p_.object = new Members();
        tag_ = Tag::Object;
    }
    for (auto &kv : *p_.object) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    p_.object->emplace_back(key, std::move(v));
}

const Json::Members &
Json::items() const
{
    static const Members none;
    const Json &v = view();
    return v.tag_ == Tag::Object ? *v.p_.object : none;
}

bool
Json::has(const std::string &key) const
{
    for (const auto &kv : items())
        if (kv.first == key)
            return true;
    return false;
}

const Json &
Json::get(const std::string &key) const
{
    for (const auto &kv : items())
        if (kv.first == key)
            return kv.second;
    fatal("JSON object has no key '", key, "'");
}

namespace
{

void
escapeInto(std::string &out, const std::string &s)
{
    out.push_back('"');
    std::size_t run = 0; // start of the pending run of plain bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const char *esc = nullptr;
        switch (c) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\n': esc = "\\n"; break;
          case '\t': esc = "\\t"; break;
          case '\r': esc = "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                continue;
        }
        out.append(s, run, i - run);
        run = i + 1;
        if (esc) {
            out += esc;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        }
    }
    out.append(s, run, s.size() - run);
    out.push_back('"');
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

/**
 * Append compact JSON text (a dump() with no whitespace) indented as
 * dumpTo(indent) indents the tree it renders: a newline and indent
 * after each opening bracket and comma and before each closing one
 * (none inside an empty container), and ": " for ':'. Strings are
 * skipped whole: their quotes and backslashes are escaped.
 */
void
reindentInto(std::string &out, std::string_view text, int indent,
             int depth)
{
    std::size_t run = 0; // start of the pending run of plain bytes
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        switch (c) {
          case '"':
            for (++i; i < text.size() && text[i] != '"'; ++i)
                if (text[i] == '\\')
                    ++i;
            continue;
          case '{':
          case '[':
            out.append(text, run, i - run);
            out.push_back(c);
            if (i + 1 < text.size() &&
                text[i + 1] == (c == '{' ? '}' : ']'))
                out.push_back(text[++i]);
            else
                newlineIndent(out, indent, ++depth);
            break;
          case '}':
          case ']':
            out.append(text, run, i - run);
            newlineIndent(out, indent, --depth);
            out.push_back(c);
            break;
          case ',':
            out.append(text, run, i - run);
            out.push_back(',');
            newlineIndent(out, indent, depth);
            break;
          case ':':
            out.append(text, run, i - run);
            out += ": ";
            break;
          default:
            continue;
        }
        run = i + 1;
    }
    out.append(text, run, text.size() - run);
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    if (tag_ == Tag::Frozen) {
        if (indent <= 0)
            out += p_.frozen->compact;
        else
            reindentInto(out, p_.frozen->compact, indent, depth);
        return;
    }
    // std::to_chars is specified as printf's "%llu" and, with general
    // format and precision 9, as "%.9g" -- without the format parse.
    char buf[32];
    switch (tag_) {
      case Tag::Null:
        out += "null";
        break;
      case Tag::Bool:
        out += p_.b ? "true" : "false";
        break;
      case Tag::Int:
        out.append(buf, std::to_chars(buf, buf + sizeof buf, p_.u).ptr);
        break;
      case Tag::Double:
        if (std::isfinite(p_.d))
            out.append(buf, std::to_chars(buf, buf + sizeof buf, p_.d,
                                          std::chars_format::general, 9)
                                .ptr);
        else
            out += "null"; // JSON has no inf/nan
        break;
      case Tag::String:
        escapeInto(out, *p_.str);
        break;
      case Tag::Array: {
        const std::vector<Json> &array = *p_.array;
        out.push_back('[');
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (i)
                out.push_back(',');
            newlineIndent(out, indent, depth + 1);
            array[i].dumpTo(out, indent, depth + 1);
        }
        if (!array.empty())
            newlineIndent(out, indent, depth);
        out.push_back(']');
        break;
      }
      case Tag::Object: {
        const Members &object = *p_.object;
        out.push_back('{');
        for (std::size_t i = 0; i < object.size(); ++i) {
            if (i)
                out.push_back(',');
            newlineIndent(out, indent, depth + 1);
            escapeInto(out, object[i].first);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            object[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!object.empty())
            newlineIndent(out, indent, depth);
        out.push_back('}');
        break;
      }
      case Tag::Frozen:
        break; // handled above
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

/** Recursive-descent parser over the generated subset; builds nodes
 *  in place (hence a friend of Json). */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    Json
    run()
    {
        Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fatal("trailing characters after JSON value at byte ",
                  pos_);
        return v;
    }

  private:
    bool
    atDigit() const
    {
        return pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9';
    }

    /** JSON's four whitespace bytes, and no others. */
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fatal("unexpected end of JSON input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fatal("expected '", c, "' at byte ", pos_, ", got '",
                  text_[pos_], "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view w)
    {
        if (text_.substr(pos_, w.size()) == w) {
            pos_ += w.size();
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape in one go.
            std::size_t stop = pos_;
            while (stop < text_.size() && text_[stop] != '"' &&
                   text_[stop] != '\\')
                ++stop;
            out.append(text_, pos_, stop - pos_);
            pos_ = stop;
            if (pos_ >= text_.size())
                fatal("unterminated JSON string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (pos_ >= text_.size())
                fatal("unterminated escape in JSON string");
            char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fatal("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fatal("bad hex digit in \\u escape");
                }
                // We only emit \u for control characters; reject the
                // rest rather than implementing UTF-16 surrogates.
                if (code > 0x7f)
                    fatal("non-ASCII \\u escape unsupported");
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                fatal("bad escape character '", e, "'");
            }
        }
    }

    /** JSON's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?
     *  [0-9]+)?, converted in place. A token without sign, fraction
     *  or exponent is an exact unsigned integer; every other number
     *  is a double. */
    Json
    number()
    {
        const std::size_t start = pos_;
        auto malformed = [&](const char *why) {
            fatal("malformed JSON number at byte ", start, ": ", why);
        };
        bool isInt = true;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
            isInt = false; // counters are unsigned; treat as double
        }
        if (!atDigit())
            malformed("expected a digit");
        if (text_[pos_++] == '0') {
            if (atDigit())
                malformed("leading zero");
        } else {
            while (atDigit())
                ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            isInt = false;
            if (!atDigit())
                malformed("expected a digit after '.'");
            while (atDigit())
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            isInt = false;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!atDigit())
                malformed("expected a digit in the exponent");
            while (atDigit())
                ++pos_;
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        Json v;
        std::from_chars_result r;
        if (isInt) {
            v.tag_ = Json::Tag::Int;
            r = std::from_chars(first, last, v.p_.u);
        } else {
            v.tag_ = Json::Tag::Double;
            r = std::from_chars(first, last, v.p_.d);
        }
        if (r.ec == std::errc::result_out_of_range)
            malformed("out of range");
        if (r.ec != std::errc() || r.ptr != last)
            malformed("not a number");
        return v;
    }

    Json
    value()
    {
        char c = peek();
        if (c == '{') {
            ++pos_;
            Json obj = Json::object();
            if (consume('}'))
                return obj;
            // Members collect on a stack shared by every nesting level
            // and move into an exactly sized vector at the close.
            const std::size_t base = members_.size();
            while (true) {
                std::string key = (skipWs(), string());
                expect(':');
                Json member = value();
                auto it = std::find_if(
                    members_.begin() + static_cast<std::ptrdiff_t>(base),
                    members_.end(),
                    [&](const auto &kv) { return kv.first == key; });
                if (it != members_.end())
                    it->second = std::move(member);
                else
                    members_.emplace_back(std::move(key),
                                          std::move(member));
                if (consume('}'))
                    break;
                expect(',');
            }
            obj.p_.object->assign(
                std::make_move_iterator(members_.begin() +
                                        static_cast<std::ptrdiff_t>(base)),
                std::make_move_iterator(members_.end()));
            members_.resize(base);
            return obj;
        }
        if (c == '[') {
            ++pos_;
            Json arr = Json::array();
            if (consume(']'))
                return arr;
            const std::size_t base = elements_.size();
            while (true) {
                elements_.push_back(value());
                if (consume(']'))
                    break;
                expect(',');
            }
            arr.p_.array->assign(
                std::make_move_iterator(elements_.begin() +
                                        static_cast<std::ptrdiff_t>(base)),
                std::make_move_iterator(elements_.end()));
            elements_.resize(base);
            return arr;
        }
        if (c == '"')
            return Json(string());
        if (consumeWord("true"))
            return Json(true);
        if (consumeWord("false"))
            return Json(false);
        if (consumeWord("null"))
            return Json();
        return number();
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    /** Open containers' members and elements (see value()). */
    Json::Members members_;
    std::vector<Json> elements_;
};

Json
Json::parse(const std::string &text)
{
    return JsonParser(text).run();
}

std::FILE *
openArtifactFile(const std::string &path)
{
    namespace fs = std::filesystem;
    fs::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        fs::create_directories(p.parent_path(), ec);
        if (ec)
            throw fault::ConfigError(detail::formatMessage(
                "cannot create directory '",
                p.parent_path().string(), "' for artifact '", path,
                "': ", ec.message()));
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw fault::ConfigError(detail::formatMessage(
            "cannot open '", path,
            "' for writing: ", std::strerror(errno)));
    return f;
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    std::FILE *f = openArtifactFile(path);
    std::string text = doc.dump(2);
    std::fputs(text.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
}

} // namespace stitch::obs
