#include "telem/timeseries.hh"

#include <algorithm>
#include <chrono>

namespace stitch::telem
{

namespace
{

template <typename T>
const T *
findNamed(const std::vector<std::pair<std::string, T>> &entries,
          const std::string &name)
{
    for (const auto &[key, value] : entries)
        if (key == name)
            return &value;
    return nullptr;
}

/** Element-wise add of `from` into `to`, adopting unseen names. */
template <typename T, typename Fold>
void
foldNamed(std::vector<std::pair<std::string, T>> &to,
          const std::vector<std::pair<std::string, T>> &from,
          Fold fold)
{
    for (const auto &[key, value] : from) {
        bool found = false;
        for (auto &[name, mine] : to)
            if (name == key) {
                fold(mine, value);
                found = true;
                break;
            }
        if (!found)
            to.emplace_back(key, value);
    }
}

} // namespace

std::uint64_t
MetricSample::counter(const std::string &name) const
{
    const std::uint64_t *v = findNamed(counters, name);
    return v ? *v : 0;
}

double
MetricSample::gauge(const std::string &name) const
{
    const double *v = findNamed(gauges, name);
    return v ? *v : 0.0;
}

const Histogram *
MetricSample::histogram(const std::string &name) const
{
    return findNamed(histograms, name);
}

namespace
{

/** The shared lossless serialization of a (counters, gauges,
 *  histograms) triple — MetricSample and Window wire forms differ
 *  only in their envelope fields. */
void
wireFieldsToJson(
    obs::Json &doc,
    const std::vector<std::pair<std::string, std::uint64_t>>
        &counters,
    const std::vector<std::pair<std::string, double>> &gauges,
    const std::vector<std::pair<std::string, Histogram>> &histograms)
{
    obs::Json cs = obs::Json::object();
    for (const auto &[name, value] : counters)
        cs.set(name, value);
    doc.set("counters", std::move(cs));
    obs::Json gs = obs::Json::object();
    for (const auto &[name, value] : gauges)
        gs.set(name, value);
    doc.set("gauges", std::move(gs));
    obs::Json hs = obs::Json::object();
    for (const auto &[name, hist] : histograms)
        hs.set(name, hist.toBucketsJson());
    doc.set("histograms", std::move(hs));
}

void
wireFieldsFromJson(
    const obs::Json &doc,
    std::vector<std::pair<std::string, std::uint64_t>> &counters,
    std::vector<std::pair<std::string, double>> &gauges,
    std::vector<std::pair<std::string, Histogram>> &histograms)
{
    if (doc.has("counters"))
        for (const auto &[name, value] : doc.get("counters").items())
            counters.emplace_back(name, value.asUint());
    if (doc.has("gauges"))
        for (const auto &[name, value] : doc.get("gauges").items())
            gauges.emplace_back(name, value.asDouble());
    if (doc.has("histograms"))
        for (const auto &[name, hist] :
             doc.get("histograms").items())
            histograms.emplace_back(
                name, Histogram::fromBucketsJson(hist));
}

} // namespace

void
MetricSample::merge(const MetricSample &other)
{
    atUs = std::max(atUs, other.atUs);
    foldNamed(counters, other.counters,
              [](std::uint64_t &a, std::uint64_t b) { a += b; });
    foldNamed(gauges, other.gauges,
              [](double &a, double b) { a += b; });
    foldNamed(histograms, other.histograms,
              [](Histogram &a, const Histogram &b) { a.merge(b); });
}

obs::Json
MetricSample::toWireJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("at_us", atUs);
    wireFieldsToJson(doc, counters, gauges, histograms);
    return doc;
}

MetricSample
MetricSample::fromWireJson(const obs::Json &doc)
{
    MetricSample sample;
    sample.atUs = doc.has("at_us") ? doc.get("at_us").asUint() : 0;
    wireFieldsFromJson(doc, sample.counters, sample.gauges,
                       sample.histograms);
    return sample;
}

obs::Json
Window::toWireJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("seq", seq);
    doc.set("start_us", startUs);
    doc.set("end_us", endUs);
    wireFieldsToJson(doc, counters, gauges, histograms);
    return doc;
}

Window
Window::fromWireJson(const obs::Json &doc)
{
    Window w;
    w.seq = doc.has("seq") ? doc.get("seq").asUint() : 0;
    w.startUs =
        doc.has("start_us") ? doc.get("start_us").asUint() : 0;
    w.endUs = doc.has("end_us") ? doc.get("end_us").asUint() : 0;
    wireFieldsFromJson(doc, w.counters, w.gauges, w.histograms);
    return w;
}

std::uint64_t
Window::counter(const std::string &name) const
{
    const std::uint64_t *v = findNamed(counters, name);
    return v ? *v : 0;
}

double
Window::gauge(const std::string &name) const
{
    const double *v = findNamed(gauges, name);
    return v ? *v : 0.0;
}

const Histogram *
Window::histogram(const std::string &name) const
{
    return findNamed(histograms, name);
}

double
Window::rate(const std::string &name) const
{
    const double seconds = durationS();
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(counter(name)) / seconds;
}

void
Window::merge(const Window &other)
{
    startUs = std::min(startUs, other.startUs);
    endUs = std::max(endUs, other.endUs);
    foldNamed(counters, other.counters,
              [](std::uint64_t &a, std::uint64_t b) { a += b; });
    foldNamed(gauges, other.gauges,
              [](double &a, double b) { a += b; });
    foldNamed(histograms, other.histograms,
              [](Histogram &a, const Histogram &b) { a.merge(b); });
}

obs::Json
Window::toJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("seq", seq);
    doc.set("start_us", startUs);
    doc.set("end_us", endUs);
    obs::Json cs = obs::Json::object();
    for (const auto &[name, value] : counters)
        if (value > 0)
            cs.set(name, value);
    doc.set("counters", std::move(cs));
    obs::Json gs = obs::Json::object();
    for (const auto &[name, value] : gauges)
        gs.set(name, value);
    doc.set("gauges", std::move(gs));
    obs::Json hs = obs::Json::object();
    for (const auto &[name, hist] : histograms)
        if (hist.count() > 0)
            hs.set(name, hist.toJson());
    doc.set("latency", std::move(hs));
    return doc;
}

Window
windowBetween(const MetricSample &earlier, const MetricSample &later)
{
    Window w;
    w.startUs = earlier.atUs;
    w.endUs = later.atUs;
    for (const auto &[name, value] : later.counters)
        w.counters.emplace_back(name,
                                value - earlier.counter(name));
    for (const auto &[name, value] : later.gauges)
        w.gauges.emplace_back(name, value);
    for (const auto &[name, hist] : later.histograms) {
        const Histogram *before = earlier.histogram(name);
        w.histograms.emplace_back(
            name, before ? hist.diffFrom(*before) : hist);
    }
    return w;
}

TimeSeries::TimeSeries(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{}

void
TimeSeries::push(Window window)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pushLocked(std::move(window));
}

void
TimeSeries::pushLocked(Window window)
{
    windows_.push_back(std::move(window));
    ++total_;
    while (windows_.size() > capacity_)
        windows_.pop_front();
}

std::size_t
TimeSeries::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return windows_.size();
}

std::uint64_t
TimeSeries::totalWindows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::vector<Window>
TimeSeries::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {windows_.begin(), windows_.end()};
}

void
TimeSeries::merge(const TimeSeries &other)
{
    const std::vector<Window> theirs = other.snapshot();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Window &w : theirs) {
        bool found = false;
        for (Window &mine : windows_)
            if (mine.seq == w.seq) {
                mine.merge(w);
                found = true;
                break;
            }
        if (!found)
            pushLocked(w);
    }
    std::sort(windows_.begin(), windows_.end(),
              [](const Window &a, const Window &b) {
                  return a.seq < b.seq;
              });
}

obs::Json
TimeSeries::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Json doc = obs::Json::object();
    doc.set("capacity", static_cast<std::uint64_t>(capacity_));
    doc.set("windows", total_);
    doc.set("retained",
            static_cast<std::uint64_t>(windows_.size()));
    if (!windows_.empty())
        doc.set("last", windows_.back().toJson());
    return doc;
}

Collector::Collector(SampleFn sample, std::uint64_t intervalMs,
                     WindowFn onWindow, std::size_t capacity)
    : sample_(std::move(sample)), onWindow_(std::move(onWindow)),
      intervalMs_(intervalMs ? intervalMs : 1000),
      series_(capacity)
{}

Collector::~Collector()
{
    stop();
}

void
Collector::start()
{
    if (thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = false;
    }
    // Baseline sample before the timer starts, so the first window
    // closes after one interval instead of two.
    sampleOnce();
    thread_ = std::thread([this] { loop(); });
}

void
Collector::stop()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
Collector::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_.wait_for(lock,
                     std::chrono::milliseconds(intervalMs_),
                     [this] { return stop_; });
        if (stop_)
            return;
        lock.unlock();
        sampleOnce();
        lock.lock();
    }
}

void
Collector::sampleOnce()
{
    // The sample callback reaches into the engine (its own lock);
    // take it outside ours so the two locks never nest.
    MetricSample now = sample_();
    Window closed;
    bool haveWindow = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (havePrev_) {
            closed = windowBetween(prev_, now);
            closed.seq = nextSeq_++;
            haveWindow = true;
        }
        prev_ = std::move(now);
        havePrev_ = true;
    }
    if (!haveWindow)
        return;
    series_.push(closed);
    if (onWindow_)
        onWindow_(closed);
}

void
Collector::tick()
{
    sampleOnce();
}

} // namespace stitch::telem
