#include "cluster/wire.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "io/crc32.hh"

namespace tie {
namespace cluster {

namespace {

// The protocol is defined little-endian; like the .tie loader we
// serialize scalars through explicit byte shifts so the code is
// correct on any host endianness. f64 arrays, the bulk of every
// inference frame, are one memcpy on little-endian hosts.

void
storeU32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
storeU64(uint8_t *p, uint64_t v)
{
    storeU32(p, static_cast<uint32_t>(v));
    storeU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t
getU32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

uint64_t
getU64(const uint8_t *p)
{
    return static_cast<uint64_t>(getU32(p)) |
           static_cast<uint64_t>(getU32(p + 4)) << 32;
}

/** Write @p n doubles at @p p as little-endian IEEE-754 bit patterns. */
void
storeF64s(uint8_t *p, const double *v, size_t n)
{
    if (n == 0)
        return;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, v, n * sizeof(double));
    } else {
        for (size_t i = 0; i < n; ++i)
            storeU64(p + i * 8, std::bit_cast<uint64_t>(v[i]));
    }
}

/** Read @p n little-endian doubles at @p p into @p v. */
void
loadF64s(double *v, const uint8_t *p, size_t n)
{
    if (n == 0)
        return;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(v, p, n * sizeof(double));
    } else {
        for (size_t i = 0; i < n; ++i)
            v[i] = std::bit_cast<double>(getU64(p + i * 8));
    }
}

/**
 * Fill in the header at @p f for the @p payload_len payload bytes
 * already written right behind it.
 */
void
sealFrame(uint8_t *f, WireType type, size_t payload_len)
{
    std::memcpy(f, kWireMagic, 4);
    storeU32(f + 4, kWireVersion);
    storeU32(f + 8, static_cast<uint32_t>(type));
    storeU32(f + 12, 0); // reserved
    storeU64(f + 16, payload_len);
    storeU32(f + 24, payload_len == 0
                         ? 0
                         : io::crc32(f + kWireHeaderSize, payload_len));
    storeU32(f + 28, io::crc32(f, 28));
}

/** Bytes ahead of the f64 array in both Infer payloads. */
constexpr size_t kInferHead = 16;

/** InferRequest payload: id, deadline, n f64 activations. */
void
putInferRequest(uint8_t *p, uint64_t req_id, uint64_t deadline_us,
                const double *x, size_t n)
{
    storeU64(p, req_id);
    storeU64(p + 8, deadline_us);
    storeF64s(p + kInferHead, x, n);
}

/** InferResponse payload: id, status, reserved, n f64 outputs. */
void
putInferResponse(uint8_t *p, uint64_t req_id, uint32_t status,
                 const double *y, size_t n)
{
    storeU64(p, req_id);
    storeU32(p + 8, status);
    storeU32(p + 12, 0); // reserved
    storeF64s(p + kInferHead, y, n);
}

size_t
inferPayloadSize(const double *v, size_t n)
{
    TIE_CHECK_ARG(v != nullptr || n == 0,
                  "null wire f64 array with nonzero length");
    TIE_CHECK_ARG(n <= (kWireMaxPayload - kInferHead) / 8,
                  "wire f64 array of ", n, " values exceeds the ",
                  kWireMaxPayload, " byte cap");
    return kInferHead + n * 8;
}

void
setError(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = msg;
}

} // namespace

bool
wireTypeKnown(uint32_t t)
{
    return t >= static_cast<uint32_t>(WireType::Hello) &&
           t <= static_cast<uint32_t>(WireType::DrainAck);
}

std::vector<uint8_t>
encodeFrame(WireType type, const void *payload, size_t payload_len)
{
    TIE_CHECK_ARG(payload_len <= kWireMaxPayload,
                  "wire payload of ", payload_len,
                  " bytes exceeds the ", kWireMaxPayload, " cap");
    TIE_CHECK_ARG(payload != nullptr || payload_len == 0,
                  "null wire payload with nonzero length");
    std::vector<uint8_t> b;
    b.reserve(kWireHeaderSize + payload_len);
    b.resize(kWireHeaderSize);
    if (payload_len != 0)
        b.insert(b.end(), static_cast<const uint8_t *>(payload),
                 static_cast<const uint8_t *>(payload) + payload_len);
    sealFrame(b.data(), type, payload_len);
    return b;
}

DecodeStatus
tryDecodeFrame(const uint8_t *data, size_t len, WireFrameView *out,
               size_t *consumed, std::string *error)
{
    *consumed = kWireHeaderSize;
    if (len == 0)
        return DecodeStatus::NeedMore;
    // Reject bad leading bytes as early as possible: a corrupt prefix
    // must never be reported as NeedMore, or a peer would wait
    // forever on a stream that can never become valid.
    const size_t magic_check = len < 4 ? len : size_t(4);
    if (std::memcmp(data, kWireMagic, magic_check) != 0) {
        setError(error, "wire frame: bad magic");
        return DecodeStatus::Corrupt;
    }
    if (len < kWireHeaderSize)
        return DecodeStatus::NeedMore;

    // Header CRC first: every later field read depends on it.
    const uint32_t header_crc = getU32(data + 28);
    if (io::crc32(data, 28) != header_crc) {
        setError(error, "wire frame: header CRC mismatch");
        return DecodeStatus::Corrupt;
    }
    const uint32_t version = getU32(data + 4);
    if (version != kWireVersion) {
        setError(error, strCat("wire frame: protocol version ",
                               version, ", expected ", kWireVersion));
        return DecodeStatus::Corrupt;
    }
    const uint32_t type = getU32(data + 8);
    if (!wireTypeKnown(type)) {
        setError(error,
                 strCat("wire frame: unknown message type ", type));
        return DecodeStatus::Corrupt;
    }
    if (getU32(data + 12) != 0) {
        setError(error, "wire frame: reserved field is nonzero");
        return DecodeStatus::Corrupt;
    }
    const uint64_t payload_size = getU64(data + 16);
    if (payload_size > kWireMaxPayload) {
        setError(error, strCat("wire frame: payload of ", payload_size,
                               " bytes exceeds the ", kWireMaxPayload,
                               " cap"));
        return DecodeStatus::Corrupt;
    }
    *consumed = kWireHeaderSize + static_cast<size_t>(payload_size);
    if (len < *consumed)
        return DecodeStatus::NeedMore;

    const uint8_t *payload = data + kWireHeaderSize;
    const uint32_t payload_crc = getU32(data + 24);
    const uint32_t actual_crc =
        payload_size == 0
            ? 0
            : io::crc32(payload, static_cast<size_t>(payload_size));
    if (actual_crc != payload_crc) {
        setError(error, "wire frame: payload CRC mismatch");
        return DecodeStatus::Corrupt;
    }

    out->type = static_cast<WireType>(type);
    out->payload = payload;
    out->size = static_cast<size_t>(payload_size);
    return DecodeStatus::Ok;
}

DecodeStatus
tryDecodeFrame(const uint8_t *data, size_t len, WireFrame *out,
               size_t *consumed, std::string *error)
{
    WireFrameView v;
    const DecodeStatus st =
        tryDecodeFrame(data, len, &v, consumed, error);
    if (st == DecodeStatus::Ok) {
        out->type = v.type;
        out->payload.assign(v.payload, v.payload + v.size);
    }
    return st;
}

// ---------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------

std::vector<uint8_t>
encodeHelloAck(const HelloAckMsg &m)
{
    std::vector<uint8_t> b(28);
    storeU64(b.data(), m.in_size);
    storeU64(b.data() + 8, m.out_size);
    storeU64(b.data() + 16, m.layers);
    storeU32(b.data() + 24, m.pid);
    return b;
}

bool
decodeHelloAck(const WireFrameView &f, HelloAckMsg *out)
{
    if (f.type != WireType::HelloAck || f.size != 28)
        return false;
    const uint8_t *p = f.payload;
    out->in_size = getU64(p);
    out->out_size = getU64(p + 8);
    out->layers = getU64(p + 16);
    out->pid = getU32(p + 24);
    return out->in_size > 0 && out->out_size > 0 && out->layers > 0;
}

std::vector<uint8_t>
encodeInferRequest(const InferRequestMsg &m)
{
    std::vector<uint8_t> b(inferPayloadSize(m.x.data(), m.x.size()));
    putInferRequest(b.data(), m.req_id, m.deadline_us, m.x.data(),
                    m.x.size());
    return b;
}

void
encodeInferRequestFrame(uint64_t req_id, uint64_t deadline_us,
                        const double *x, size_t n,
                        std::vector<uint8_t> *out)
{
    const size_t len = inferPayloadSize(x, n);
    out->resize(kWireHeaderSize + len);
    putInferRequest(out->data() + kWireHeaderSize, req_id, deadline_us,
                    x, n);
    sealFrame(out->data(), WireType::InferRequest, len);
}

bool
decodeInferRequest(const WireFrameView &f, InferRequestMsg *out)
{
    if (f.type != WireType::InferRequest || f.size < kInferHead ||
        (f.size - kInferHead) % 8 != 0)
        return false;
    const uint8_t *p = f.payload;
    out->req_id = getU64(p);
    out->deadline_us = getU64(p + 8);
    const size_t n = (f.size - kInferHead) / 8;
    out->x.resize(n);
    loadF64s(out->x.data(), p + kInferHead, n);
    return n > 0;
}

std::vector<uint8_t>
encodeInferResponse(const InferResponseMsg &m)
{
    std::vector<uint8_t> b(inferPayloadSize(m.y.data(), m.y.size()));
    putInferResponse(b.data(), m.req_id, m.status, m.y.data(),
                     m.y.size());
    return b;
}

void
encodeInferResponseFrame(uint64_t req_id, uint32_t status,
                         const double *y, size_t n,
                         std::vector<uint8_t> *out)
{
    const size_t len = inferPayloadSize(y, n);
    out->resize(kWireHeaderSize + len);
    putInferResponse(out->data() + kWireHeaderSize, req_id, status, y,
                     n);
    sealFrame(out->data(), WireType::InferResponse, len);
}

bool
decodeInferResponse(const WireFrameView &f, InferResponseMsg *out)
{
    if (f.type != WireType::InferResponse || f.size < kInferHead ||
        (f.size - kInferHead) % 8 != 0)
        return false;
    const uint8_t *p = f.payload;
    out->req_id = getU64(p);
    out->status = getU32(p + 8);
    if (getU32(p + 12) != 0)
        return false;
    const size_t n = (f.size - kInferHead) / 8;
    out->y.resize(n);
    loadF64s(out->y.data(), p + kInferHead, n);
    return true;
}

std::vector<uint8_t>
encodeHealthReport(const HealthReportMsg &m)
{
    std::vector<uint8_t> b(40);
    storeU64(b.data(), m.queue_depth);
    storeU64(b.data() + 8, m.in_flight);
    storeU64(b.data() + 16, m.done);
    storeU64(b.data() + 24, m.shed);
    storeU32(b.data() + 32, m.draining);
    storeU32(b.data() + 36, 0); // reserved
    return b;
}

bool
decodeHealthReport(const WireFrameView &f, HealthReportMsg *out)
{
    if (f.type != WireType::HealthReport || f.size != 40)
        return false;
    const uint8_t *p = f.payload;
    out->queue_depth = getU64(p);
    out->in_flight = getU64(p + 8);
    out->done = getU64(p + 16);
    out->shed = getU64(p + 24);
    out->draining = getU32(p + 32);
    return getU32(p + 36) == 0;
}

} // namespace cluster
} // namespace tie
