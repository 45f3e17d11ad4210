/**
 * @file
 * Event-stream exporters: a JSONL writer (one JSON object per line,
 * greppable / trivially loadable into pandas) and a Chrome-trace
 * writer emitting the `trace_event` JSON format that chrome://tracing
 * and Perfetto (ui.perfetto.dev) open directly.
 *
 * Both write through an owned std::ofstream when constructed from a
 * path, or borrow any std::ostream (tests use std::ostringstream).
 * See docs/observability.md for the schemas.
 */

#ifndef VMSIM_OBS_EXPORTERS_HH
#define VMSIM_OBS_EXPORTERS_HH

#include <cstddef>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hh"

namespace vmsim
{

/**
 * Streams every event as one line of JSON:
 *
 *   {"kind":"pte_fetch","level":2,"instr":1234,
 *    "vaddr":"0x81200040","vpn":17,"cycles":0}
 *
 * Records are hand-formatted with std::to_chars (no Json tree, no
 * printf) into a block buffer that goes to the stream in one write
 * when it fills, on flush() and on destruction, so a fully traced run
 * stays I/O-bound, not formatting-bound.
 */
class JsonlEventWriter : public EventSink
{
  public:
    /**
     * Write to @p path (truncates); throws VmsimError (IoError) if it
     * cannot be opened.
     */
    explicit JsonlEventWriter(const std::string &path);

    /** Write to a borrowed stream (not owned; must outlive this). */
    explicit JsonlEventWriter(std::ostream &os);

    /**
     * Writes out buffered records; a failure is logged (destructors
     * must not throw), never silently swallowed.
     */
    ~JsonlEventWriter() override;

    JsonlEventWriter(const JsonlEventWriter &) = delete;
    JsonlEventWriter &operator=(const JsonlEventWriter &) = delete;

    /**
     * Buffer one record. Throws VmsimError (IoError) when the stream
     * is bad or writing out a full buffer fails.
     */
    void event(const TraceEvent &ev) override;

    /** Write out buffered records and flush the stream; throws like
     *  event(). */
    void flush() override;

    Counter eventsWritten() const { return written_; }

  private:
    /** Hand the buffered records to the stream; throws on failure. */
    void drain();

    static constexpr std::size_t kBufBytes = 16 * 1024;
    /** Room one record needs: the longest (14-char kind, 3-digit
     *  level, three 20-digit decimals, 16 hex digits) is 153 bytes. */
    static constexpr std::size_t kMaxRecord = 160;

    std::unique_ptr<std::ofstream> owned_;
    std::ostream &os_;
    std::string path_;
    std::unique_ptr<char[]> buf_;
    std::size_t used_ = 0;
    Counter written_ = 0;
};

/**
 * Emits the Chrome `trace_event` JSON object format. Two timelines
 * share the file:
 *
 *  - pid 1 "simulation": simulated VM events on the user-instruction
 *    timebase (1 "µs" = 1 instruction = 1 cycle on the paper's 1-CPI
 *    core). Handler episodes render as duration slices
 *    (HandlerEnter/HandlerExit become B/E pairs), hardware walks as
 *    complete ("X") slices, everything else as instant events.
 *  - pid 0 "sweep": real wall-clock duration slices added explicitly
 *    via durationEvent() — SweepRunner uses this to render each cell's
 *    wall time on its worker's track.
 *
 * finish() (or destruction) closes the JSON so the file always parses.
 */
class ChromeTraceWriter : public EventSink
{
  public:
    /** pid of the simulated-event timeline. */
    static constexpr int kSimPid = 1;

    /** pid of the wall-clock (sweep) timeline. */
    static constexpr int kWallPid = 0;

    /**
     * Write to @p path (truncates); throws VmsimError (IoError) if it
     * cannot be opened.
     */
    explicit ChromeTraceWriter(const std::string &path);

    /** Write to a borrowed stream (not owned). */
    explicit ChromeTraceWriter(std::ostream &os);

    /**
     * Closes the JSON if finish() was not called; a close failure is
     * logged (destructors must not throw), never silently swallowed.
     */
    ~ChromeTraceWriter() override;

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    void event(const TraceEvent &ev) override;
    void flush() override;

    /**
     * Add one complete ("X") duration slice with explicit placement —
     * @p ts_us / @p dur_us in microseconds on the @p pid / @p tid
     * track. @p args become the slice's argument table (values are
     * written as JSON strings).
     */
    void durationEvent(
        const std::string &name, const std::string &cat, double ts_us,
        double dur_us, int pid, int tid,
        const std::vector<std::pair<std::string, std::string>> &args = {});

    /** Write the closing bracket/metadata; idempotent. */
    void finish();

  private:
    void writeHeader();
    void beginRecord();

    std::unique_ptr<std::ofstream> owned_;
    std::ostream &os_;
    std::string path_;
    bool first_ = true;
    bool finished_ = false;
};

} // namespace vmsim

#endif // VMSIM_OBS_EXPORTERS_HH
