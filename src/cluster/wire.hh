/**
 * @file
 * The cluster wire protocol: length-prefixed, CRC-framed binary
 * messages between the router and tie_worker processes.
 *
 * Framing follows the .tie artifact discipline (io/tie_format.hh):
 * a fixed-width little-endian header with a magic, a version, a
 * payload length, a CRC-32 over the payload and a CRC-32 over the
 * header itself. Integrity is fail-stop, never best-effort — a
 * truncated stream parses as NeedMore (wait for the rest) and any
 * corrupted byte, in the header or the payload, parses as Corrupt and
 * kills the connection. tests/test_cluster.cc runs the same
 * every-truncation / every-bit-flip hostility matrices the artifact
 * loader gets.
 *
 * Frame header (32 bytes, all fields little-endian):
 *
 *   offset  size  field
 *        0     4  magic "TIEW"
 *        4     4  protocol version (kWireVersion)
 *        8     4  message type (WireType)
 *       12     4  reserved, must be zero
 *       16     8  payload size in bytes
 *       24     4  CRC-32 of the payload bytes (0 for empty payloads)
 *       28     4  CRC-32 of header bytes [0, 28)
 *
 * The payload layouts of the typed messages are documented field by
 * field in docs/cluster.md; every decoder validates the exact payload
 * size against the message's own fields before reading a value.
 *
 * The hot path (InferRequest/InferResponse) costs one pass per byte on
 * each side: the *Frame encoders write header and payload into one
 * buffer, and the view decoders read the payload in place from the
 * receive window, copying each f64 array into its message once (one
 * memcpy on little-endian hosts).
 */

#ifndef TIE_CLUSTER_WIRE_HH
#define TIE_CLUSTER_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tie {
namespace cluster {

/** First 4 bytes of every frame. */
inline constexpr uint8_t kWireMagic[4] = {'T', 'I', 'E', 'W'};

/** Current (and only) protocol version. */
inline constexpr uint32_t kWireVersion = 1;

/** Fixed frame header size. */
inline constexpr size_t kWireHeaderSize = 32;

/**
 * Hard cap on a frame payload. Large enough for any realistic batch
 * of f64 activations, small enough that a corrupted-but-CRC-valid
 * length can never make a peer allocate unbounded memory.
 */
inline constexpr uint64_t kWireMaxPayload = 1ull << 30;

/** Message types of protocol version 1. */
enum class WireType : uint32_t
{
    Hello = 1,         ///< router -> worker: open a data connection
    HelloAck = 2,      ///< worker -> router: model interface summary
    InferRequest = 3,  ///< router -> worker: one inference request
    InferResponse = 4, ///< worker -> router: its terminal outcome
    HealthCheck = 5,   ///< router -> worker: load/liveness probe
    HealthReport = 6,  ///< worker -> router: queue depth + counters
    Drain = 7,         ///< router -> worker: stop accepting, finish
    DrainAck = 8,      ///< worker -> router: drained, about to exit
};

/** True for the type values a v1 peer may legally send. */
bool wireTypeKnown(uint32_t t);

/**
 * One decoded frame viewed in place: @p payload points into the
 * window it was decoded from and lives exactly as long as that window.
 */
struct WireFrameView
{
    WireType type = WireType::Hello;
    const uint8_t *payload = nullptr;
    size_t size = 0;
};

/** One decoded frame: the type plus the raw payload bytes. */
struct WireFrame
{
    WireType type = WireType::Hello;
    std::vector<uint8_t> payload;

    /** View of the payload (valid while this frame is unchanged). */
    operator WireFrameView() const
    {
        return {type, payload.data(), payload.size()};
    }
};

/** Outcome of tryDecodeFrame over a byte window. */
enum class DecodeStatus
{
    Ok,       ///< one frame decoded; *consumed bytes were eaten
    NeedMore, ///< prefix of a valid frame; read more and retry
    Corrupt,  ///< fail-stop: bad magic/version/CRC/length — kill the
              ///< connection, never resynchronize
};

/** Frame @p payload_len bytes of @p payload as a wire message. */
std::vector<uint8_t> encodeFrame(WireType type, const void *payload,
                                 size_t payload_len);

/**
 * Decode one frame from the first @p len bytes at @p data. On Ok,
 * fills @p out (a view into @p data) and sets @p consumed to the
 * frame's total size. On NeedMore, @p consumed receives the window
 * length the frame needs so far: kWireHeaderSize until the header is
 * whole, then the whole frame's size once the header validated. On
 * Corrupt, @p error (when non-null) receives a diagnostic. NeedMore
 * is only returned while the window is shorter than the frame claims
 * *and* every byte seen so far is consistent with a valid frame.
 */
DecodeStatus tryDecodeFrame(const uint8_t *data, size_t len,
                            WireFrameView *out, size_t *consumed,
                            std::string *error = nullptr);

/** tryDecodeFrame, copying the payload out of the window. */
DecodeStatus tryDecodeFrame(const uint8_t *data, size_t len,
                            WireFrame *out, size_t *consumed,
                            std::string *error = nullptr);

// ---------------------------------------------------------------------
// Typed payloads. Every decode validates the exact payload size and
// every field before returning true; false means the payload is
// malformed (treat like Corrupt).
// ---------------------------------------------------------------------

/** HelloAck: the serving interface of the worker's model. */
struct HelloAckMsg
{
    uint64_t in_size = 0;
    uint64_t out_size = 0;
    uint64_t layers = 0;
    uint32_t pid = 0; ///< worker process id (diagnostics)
};

/** InferRequest: id + deadline + in_size f64 activations. */
struct InferRequestMsg
{
    uint64_t req_id = 0;
    uint64_t deadline_us = 0;
    std::vector<double> x;
};

/**
 * InferResponse: the request's terminal outcome. @p status carries a
 * serve::RequestStatus value; the output payload is present exactly
 * when status == Done.
 */
struct InferResponseMsg
{
    uint64_t req_id = 0;
    uint32_t status = 0;
    std::vector<double> y;
};

/** HealthReport: the worker's live load + lifetime counters. */
struct HealthReportMsg
{
    uint64_t queue_depth = 0;
    uint64_t in_flight = 0;
    uint64_t done = 0;
    uint64_t shed = 0; ///< rejected + timed out
    uint32_t draining = 0;
};

std::vector<uint8_t> encodeHelloAck(const HelloAckMsg &m);
bool decodeHelloAck(const WireFrameView &f, HelloAckMsg *out);

std::vector<uint8_t> encodeInferRequest(const InferRequestMsg &m);
bool decodeInferRequest(const WireFrameView &f, InferRequestMsg *out);

std::vector<uint8_t> encodeInferResponse(const InferResponseMsg &m);
bool decodeInferResponse(const WireFrameView &f, InferResponseMsg *out);

std::vector<uint8_t> encodeHealthReport(const HealthReportMsg &m);
bool decodeHealthReport(const WireFrameView &f, HealthReportMsg *out);

/**
 * Encode a whole InferRequest frame, header and payload, into @p out
 * (resized) in one pass: the same bytes as
 * encodeFrame(InferRequest, encodeInferRequest(m)) for a message
 * holding @p n activations at @p x.
 */
void encodeInferRequestFrame(uint64_t req_id, uint64_t deadline_us,
                             const double *x, size_t n,
                             std::vector<uint8_t> *out);

/** The InferResponse counterpart of encodeInferRequestFrame. */
void encodeInferResponseFrame(uint64_t req_id, uint32_t status,
                              const double *y, size_t n,
                              std::vector<uint8_t> *out);

} // namespace cluster
} // namespace tie

#endif // TIE_CLUSTER_WIRE_HH
