#include "obs/exporters.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "base/error.hh"
#include "base/json.hh"
#include "base/logging.hh"

namespace vmsim
{

namespace
{

std::unique_ptr<std::ofstream>
openOrThrow(const std::string &path)
{
    auto f = std::make_unique<std::ofstream>(path,
                                             std::ios::out |
                                                 std::ios::trunc);
    if (!f->is_open())
        throw VmsimError(errnoError(path, "cannot open for writing"));
    return f;
}

[[noreturn]] void
throwWriteError(const std::string &path, const char *what)
{
    throw VmsimError(makeError(ErrorCode::IoError,
                               path.empty() ? "<stream>" : path, what,
                               path.empty() ? "" : ": ", path));
}

/** Copy string literal @p s to @p p; @return the end of the copy. */
template <std::size_t N>
char *
put(char *p, const char (&s)[N])
{
    std::memcpy(p, s, N - 1);
    return p + N - 1;
}

/** Write @p v in @p base at @p p (room for 20 digits assumed). */
char *
put(char *p, std::uint64_t v, int base = 10)
{
    return std::to_chars(p, p + 20, v, base).ptr;
}

/** Display name of a handler/PT level for trace slice labels. */
const char *
levelName(std::uint8_t level)
{
    switch (level) {
      case 0:
        return "user";
      case 1:
        return "kernel";
      default:
        return "root";
    }
}

} // anonymous namespace

JsonlEventWriter::JsonlEventWriter(const std::string &path)
    : owned_(openOrThrow(path)), os_(*owned_), path_(path),
      buf_(new char[kBufBytes])
{}

JsonlEventWriter::JsonlEventWriter(std::ostream &os)
    : os_(os), buf_(new char[kBufBytes])
{}

JsonlEventWriter::~JsonlEventWriter()
{
    try {
        drain();
    } catch (const std::exception &e) {
        warn("JsonlEventWriter: failed to write '",
             path_.empty() ? "<stream>" : path_, "': ", e.what());
    } catch (...) {
        warn("JsonlEventWriter: failed to write '",
             path_.empty() ? "<stream>" : path_, "': unknown error");
    }
}

void
JsonlEventWriter::event(const TraceEvent &ev)
{
    if (!os_)
        throwWriteError(path_, "JSONL event stream is bad");
    if (used_ > kBufBytes - kMaxRecord)
        drain();
    const char *kind = eventKindName(ev.kind);
    const std::size_t kindLen = std::strlen(kind);
    char *p = put(buf_.get() + used_, "{\"kind\":\"");
    std::memcpy(p, kind, kindLen);
    p = put(p + kindLen, "\",\"level\":");
    p = put(p, ev.level);
    p = put(p, ",\"instr\":");
    p = put(p, ev.instr);
    p = put(p, ",\"vaddr\":\"0x");
    p = put(p, ev.vaddr, 16);
    p = put(p, "\",\"vpn\":");
    p = put(p, ev.vpn);
    p = put(p, ",\"cycles\":");
    p = put(p, ev.cycles);
    p = put(p, "}\n");
    used_ = static_cast<std::size_t>(p - buf_.get());
    ++written_;
}

void
JsonlEventWriter::drain()
{
    if (used_ == 0)
        return;
    os_.write(buf_.get(), static_cast<std::streamsize>(used_));
    used_ = 0; // a failed block is lost either way; never resend it
    if (!os_)
        throwWriteError(path_, "short write of JSONL events");
}

void
JsonlEventWriter::flush()
{
    drain();
    os_.flush();
    if (!os_)
        throwWriteError(path_, "cannot flush JSONL event stream");
}

ChromeTraceWriter::ChromeTraceWriter(const std::string &path)
    : owned_(openOrThrow(path)), os_(*owned_), path_(path)
{
    writeHeader();
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream &os)
    : os_(os)
{
    writeHeader();
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    // Destructors must not throw; a failed close leaves an unparseable
    // trace, so warn rather than swallow the evidence.
    try {
        finish();
    } catch (const std::exception &e) {
        warn("ChromeTraceWriter: failed to finish '",
             path_.empty() ? "<stream>" : path_, "': ", e.what());
    } catch (...) {
        warn("ChromeTraceWriter: failed to finish '",
             path_.empty() ? "<stream>" : path_, "': unknown error");
    }
}

void
ChromeTraceWriter::writeHeader()
{
    os_ << "{\"traceEvents\":[\n";
}

void
ChromeTraceWriter::beginRecord()
{
    panicIf(finished_, "ChromeTraceWriter: record after finish()");
    if (!first_)
        os_ << ",\n";
    first_ = false;
}

void
ChromeTraceWriter::event(const TraceEvent &ev)
{
    const auto ts = static_cast<double>(ev.instr);
    char buf[256];
    int n = 0;
    switch (ev.kind) {
      case EventKind::HandlerEnter:
        n = std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s-handler\",\"cat\":\"handler\","
                          "\"ph\":\"B\",\"ts\":%.1f,\"pid\":%d,"
                          "\"tid\":0,\"args\":{\"vpn\":%" PRIu64
                          ",\"instrs\":%" PRIu64 "}}",
                          levelName(ev.level), ts, kSimPid, ev.vpn,
                          ev.cycles);
        break;
      case EventKind::HandlerExit:
        n = std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s-handler\",\"cat\":\"handler\","
                          "\"ph\":\"E\",\"ts\":%.1f,\"pid\":%d,"
                          "\"tid\":0}",
                          levelName(ev.level), ts, kSimPid);
        break;
      case EventKind::HwWalk:
        n = std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"hw-walk\",\"cat\":\"walk\","
                          "\"ph\":\"X\",\"ts\":%.1f,\"dur\":%" PRIu64
                          ",\"pid\":%d,\"tid\":0,\"args\":{\"vpn\":%"
                          PRIu64 "}}",
                          ts, ev.cycles, kSimPid, ev.vpn);
        break;
      default:
        n = std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s\",\"cat\":\"vm\",\"ph\":\"i\","
                          "\"s\":\"t\",\"ts\":%.1f,\"pid\":%d,"
                          "\"tid\":0,\"args\":{\"level\":%u,\"vpn\":%"
                          PRIu64 "}}",
                          eventKindName(ev.kind), ts, kSimPid,
                          unsigned{ev.level}, ev.vpn);
        break;
    }
    beginRecord();
    os_.write(buf, n);
}

void
ChromeTraceWriter::durationEvent(
    const std::string &name, const std::string &cat, double ts_us,
    double dur_us, int pid, int tid,
    const std::vector<std::pair<std::string, std::string>> &args)
{
    beginRecord();
    os_ << "{\"name\":" << Json::quoted(name)
        << ",\"cat\":" << Json::quoted(cat) << ",\"ph\":\"X\",\"ts\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", ts_us, dur_us);
    os_ << buf << ",\"pid\":" << pid << ",\"tid\":" << tid;
    if (!args.empty()) {
        os_ << ",\"args\":{";
        bool first = true;
        for (const auto &[k, v] : args) {
            if (!first)
                os_ << ',';
            first = false;
            os_ << Json::quoted(k) << ':' << Json::quoted(v);
        }
        os_ << '}';
    }
    os_ << '}';
}

void
ChromeTraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    os_ << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
           "{\"generator\":\"vmsim\",\"sim_timebase\":"
           "\"1us = 1 user instruction (pid 1)\"}}\n";
    os_.flush();
    if (!os_)
        throwWriteError(path_, "cannot finish Chrome trace");
}

void
ChromeTraceWriter::flush()
{
    os_.flush();
}

} // namespace vmsim
