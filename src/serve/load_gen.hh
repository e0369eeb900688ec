/**
 * @file
 * The serving stack's one deterministic load generator and its oracle.
 *
 * runLoadGen drives any LoadTarget: N lanes, each a submit/wait pair
 * serving one model. A Server is one lane (ServerTarget), a
 * ModelRegistry one lane per model name (RegistryTarget) and a set of
 * cluster Routers one lane per router (cluster::RouterTarget). Request
 * i goes to lane i % N with input makeRequestInput(seed, i,
 * inSize(lane)), so the per-lane streams are the same for every client
 * count and process boundary, and every Done output is compared
 * **bit-exactly** with expected[lane][i / N] (referenceOutputs /
 * tenantReferenceOutputs). Done, Rejected and TimedOut are tallied per
 * lane, so completed + rejected + timed_out == submitted.
 *
 *  - **Closed loop**: @p clients threads each keep one request
 *    outstanding; latency is client-observed, submit to wait-return.
 *  - **Open loop** (@p offered_qps > 0): a pacer submits with seeded
 *    exponential inter-arrival gaps regardless of completions, so
 *    queueing, deadline expiry and admission rejection actually show.
 *    Latency is the server-side queue wait + service, which a lagging
 *    collector cannot distort (zero for targets without timing).
 */

#ifndef TIE_SERVE_LOAD_GEN_HH
#define TIE_SERVE_LOAD_GEN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/model_registry.hh"
#include "serve/server.hh"

namespace tie {
namespace serve {

struct LoadGenOptions
{
    size_t requests = 256; ///< total requests across all lanes
    size_t clients = 4;    ///< closed-loop client threads
    double offered_qps = 0; ///< > 0 selects the open-loop generator
    uint64_t deadline_us = 0; ///< enqueue deadline per request (0: none)
    uint64_t seed = 1;        ///< request-stream seed
};

/** Exact sample statistics (sorted-sample percentiles, not binned). */
struct LatencySummary
{
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
};

struct LoadGenReport
{
    bool open_loop = false;
    size_t submitted = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t timed_out = 0;
    size_t mismatched = 0; ///< Done outputs differing from reference
    double wall_s = 0;
    double offered_qps = 0;  ///< 0 for closed loop
    double achieved_qps = 0; ///< completed / wall_s
    LatencySummary latency;  ///< e2e (closed) / server-side (open)
    LatencySummary queue_wait; ///< RequestTiming.queue_wait_us
    LatencySummary service;    ///< RequestTiming.service_us
};

/** One run: a report per lane — each lane serves one model — and
    their aggregate. */
struct LoadReport
{
    std::vector<LoadGenReport> per_model; ///< aligned with the lanes
    LoadGenReport aggregate;
};

/** Expected outputs per lane: entry j of lane k is request j * N + k. */
using LaneOutputs = std::vector<std::vector<std::vector<double>>>;

/** One in-flight request; each target uses the field of its kind. */
struct LoadTicket
{
    Ticket ticket;           ///< ServerTarget
    RegistryTicket registry; ///< RegistryTarget
    uint64_t id = 0;         ///< numeric handles (cluster::RouterTarget)
};

/** What the load generator needs of a target: N lanes of submit/wait. */
class LoadTarget
{
  public:
    virtual ~LoadTarget() = default;

    virtual size_t lanes() const = 0;
    virtual size_t inSize(size_t lane) const = 0;
    /** Submit @p x (inSize(lane) values) to @p lane into @p t. */
    virtual void submit(size_t lane, const double *x,
                        uint64_t deadline_us, LoadTicket &t) = 0;
    /** Block until @p t is Done (output in @p out), Rejected or
        TimedOut; targets without server-side timing leave it zero. */
    virtual RequestStatus wait(size_t lane, LoadTicket &t,
                               std::vector<double> *out,
                               RequestTiming *timing) = 0;
};

/** A single Server as a one-lane target. */
class ServerTarget final : public LoadTarget
{
  public:
    explicit ServerTarget(Server &server) : server_(server) {}
    size_t lanes() const override { return 1; }
    size_t inSize(size_t) const override { return server_.inSize(); }
    void
    submit(size_t, const double *x, uint64_t deadline_us,
           LoadTicket &t) override
    {
        t.ticket = server_.submit(x, deadline_us);
    }
    RequestStatus
    wait(size_t, LoadTicket &t, std::vector<double> *out,
         RequestTiming *timing) override
    {
        return server_.wait(t.ticket, out, timing);
    }

  private:
    Server &server_;
};

/**
 * A ModelRegistry as one lane per model name. Every name must already
 * be published (fatal() otherwise); each lane's input size is
 * resolved once, here.
 */
class RegistryTarget final : public LoadTarget
{
  public:
    RegistryTarget(ModelRegistry &registry,
                   std::vector<std::string> names)
        : registry_(registry), names_(std::move(names))
    {
        for (const std::string &name : names_)
            in_sizes_.push_back(registry_.info(name).in_size);
    }
    size_t lanes() const override { return names_.size(); }
    size_t inSize(size_t lane) const override { return in_sizes_[lane]; }
    void
    submit(size_t lane, const double *x, uint64_t deadline_us,
           LoadTicket &t) override
    {
        t.registry = registry_.submit(names_[lane], x, deadline_us);
    }
    RequestStatus
    wait(size_t, LoadTicket &t, std::vector<double> *out,
         RequestTiming *timing) override
    {
        return registry_.wait(t.registry, out, timing);
    }

  private:
    ModelRegistry &registry_;
    std::vector<std::string> names_;
    std::vector<size_t> in_sizes_;
};

/** Deterministic input for request @p index: N uniform [-1, 1). */
std::vector<double> makeRequestInput(uint64_t seed, size_t index,
                                     size_t n);

/** Bit-exact batch-1 reference outputs for lane @p slot of
    @p n_models: entry j is global request j * n_models + slot. */
std::vector<std::vector<double>>
tenantReferenceOutputs(const std::vector<TtLayerViewD> &model,
                       size_t slot, size_t n_models, uint64_t seed,
                       size_t total_requests);

/** Batch-1 reference outputs for requests [0, requests): one lane. */
std::vector<std::vector<double>>
referenceOutputs(const std::vector<const TtMatrix *> &model,
                 uint64_t seed, size_t requests);

/** View-chain overload (e.g. layers of a mapped io::TieModel). */
std::vector<std::vector<double>>
referenceOutputs(const std::vector<TtLayerViewD> &model, uint64_t seed,
                 size_t requests);

/** Exact summary of @p samples; zeros when empty. By value: the sort
    happens on the copy (std::move in to elide it). */
LatencySummary summarize(std::vector<double> samples);

/** Drive @p target closed- or open-loop (by opts.offered_qps);
    @p expected, when given, covers every lane's requests. */
LoadReport runLoadGen(LoadTarget &target, const LoadGenOptions &opts,
                      const LaneOutputs *expected = nullptr);

} // namespace serve
} // namespace tie

#endif // TIE_SERVE_LOAD_GEN_HH
