#include "obs/trace.hh"

#include "common/table.hh"
#include "obs/json.hh"

namespace stitch::obs
{

Tracer::Tracer(const std::string &path)
    : out_(openArtifactFile(path)) // typed error on unwritable path
{
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out_);
    emitHeader();
}

Tracer::~Tracer()
{
    retractTail();
    std::fputs("\n]}\n", out_);
    std::fclose(out_);
}

void
Tracer::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (tailWritten_)
        return;
    tailPos_ = std::ftell(out_);
    std::fputs("\n]}\n", out_);
    std::fflush(out_);
    tailWritten_ = true;
}

void
Tracer::retractTail()
{
    if (!tailWritten_)
        return;
    // Later events (and the destructor's final tail) overwrite the
    // provisional one; they are never shorter than what they replace,
    // so no stale bytes survive past the new end of the document.
    std::fseek(out_, tailPos_, SEEK_SET);
    tailWritten_ = false;
}

void
Tracer::emitHeader()
{
    metadata(pidTiles, 0, "process_name", "tiles");
    metadata(pidNoc, 0, "process_name", "noc");
    metadata(pidSvc, 0, "process_name", "svc");
    for (TileId t = 0; t < numTiles; ++t) {
        metadata(pidTiles, t, "thread_name", strformat("tile%d", t));
        metadata(pidNoc, t, "thread_name",
                 strformat("from tile%d", t));
    }
}

void
Tracer::nameTrack(int pid, int tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metadata(pid, tid, "thread_name", name);
}

void
Tracer::metadata(int pid, int tid, const char *what,
                 const std::string &name)
{
    retractTail();
    if (!first_)
        std::fputc(',', out_);
    first_ = false;
    std::fprintf(out_,
                 "\n{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 what, pid, tid, name.c_str());
}

void
Tracer::event(char ph, int pid, int tid, const char *name, Cycles ts,
              Cycles dur, std::initializer_list<Arg> args)
{
    retractTail();
    if (!first_)
        std::fputc(',', out_);
    first_ = false;
    std::fprintf(out_,
                 "\n{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":%d,"
                 "\"tid\":%d,\"ts\":%llu",
                 name, ph, pid, tid,
                 static_cast<unsigned long long>(ts));
    if (ph == 'X')
        std::fprintf(out_, ",\"dur\":%llu",
                     static_cast<unsigned long long>(dur));
    if (ph == 'i')
        std::fputs(",\"s\":\"t\"", out_);
    if (args.size() > 0) {
        std::fputs(",\"args\":{", out_);
        bool firstArg = true;
        for (const Arg &a : args) {
            std::fprintf(out_, "%s\"%s\":%llu", firstArg ? "" : ",",
                         a.key,
                         static_cast<unsigned long long>(a.value));
            firstArg = false;
        }
        std::fputc('}', out_);
    }
    std::fputc('}', out_);
}

void
Tracer::slice(int pid, int tid, const char *name, Cycles start,
              Cycles end, std::initializer_list<Arg> args)
{
    if (end <= start)
        return; // zero-length slices only clutter the viewer
    std::lock_guard<std::mutex> lock(mutex_);
    event('X', pid, tid, name, start, end - start, args);
}

void
Tracer::instant(int pid, int tid, const char *name, Cycles ts,
                std::initializer_list<Arg> args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    event('i', pid, tid, name, ts, 0, args);
}

} // namespace stitch::obs
