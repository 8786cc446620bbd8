/* Compiled index-mapped Manacher scan: the extension module lps/native.py
   builds and loads.

   The scan is the loop of lps.core.python_radii, line for line, run over
   a range of centers [start, stop) from a ScanState that carries it from
   one range to the next; a whole scan is one range. It reads the text
   where it lies: a str through its PEP 393 array of 1, 2 or 4 bytes per
   code point, bytes and other buffers as uint8. It writes the 2n+1 radii
   into an int32 table and reports the number of real symbol comparisons,
   the count the Python engine reports, and the leftmost center of the
   longest palindrome. The caller keeps 2n+1 below 2^31, so every index
   and radius fits the table.

   Both entry points allocate the table themselves, unzeroed: scan
   returns it whole, and write_radii, lps radii's path, formats and
   writes each chunk of it as soon as the scan has passed that chunk. On
   a table longer than one chunk write_radii scans on one POSIX thread
   of its own, which never holds the GIL, while the calling thread
   formats and writes behind it. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>

/* Output bytes per formatted entry: "1073741823", the largest radius a
   table of 2n+1 < 2^31 entries holds, and a comma. */
#define FORMAT_BYTES 11

/* Where a scan stands between two ranges: the reference center and the
   right edge of its palindrome, the best center and its radius, and the
   comparisons made so far. */
typedef struct {
    int64_t ref, right, best, best_len, comparisons;
} ScanState;

/* right = -1: no palindrome is known yet, so center 0 expands (over no
   symbols) instead of reading its own entry as a mirror. Every entry is
   then written before it is read, and the table needs no zero fill. */
static const ScanState SCAN_START = {.right = -1};

/* A mirror copy never exceeds the radius it copies, which an earlier
   center already holds, so only an expansion can raise the best length;
   testing it with > keeps the leftmost center on ties. The loop is inlined
   into each caller: one shared out-of-line copy scanned unary text 5-10%
   slower, in how the compiler laid out its branches, than a loop compiled
   where its start and its state are known. */
#define SCAN(T)                                                                                       \
    static inline __attribute__((always_inline)) void                                                 \
    scan_##T(const T *text, int64_t n, int32_t *radii, ScanState *state, int64_t start, int64_t stop) \
    {                                                                                                 \
        int64_t comparisons = state->comparisons, ref = state->ref, right = state->right;             \
        int64_t best = state->best, best_len = state->best_len;                                       \
        for (int64_t j = start; j < stop; j++) {                                                      \
            int64_t radius;                                                                           \
            if (j <= right) {                                                                         \
                int64_t k = 2 * ref - j;                                                              \
                if (k - radii[k] > 2 * ref - right) {                                                 \
                    radii[j] = radii[k];                                                              \
                    continue;                                                                         \
                }                                                                                     \
                radius = right - j;                                                                   \
            } else {                                                                                  \
                radius = j & 1;                                                                       \
            }                                                                                         \
            int64_t lo = ((j - radius) >> 1) - 1, hi = (j + radius) >> 1;                             \
            while (lo >= 0 && hi < n) {                                                               \
                comparisons++;                                                                        \
                if (text[lo] != text[hi])                                                             \
                    break;                                                                            \
                lo--;                                                                                 \
                hi++;                                                                                 \
            }                                                                                         \
            radius = hi - lo - 1;                                                                     \
            radii[j] = (int32_t)radius;                                                               \
            if (radius > best_len) {                                                                  \
                best = j;                                                                             \
                best_len = radius;                                                                    \
            }                                                                                         \
            if (j + radius > right) {                                                                 \
                ref = j;                                                                              \
                right = j + radius;                                                                   \
            }                                                                                         \
        }                                                                                             \
        *state = (ScanState){ref, right, best, best_len, comparisons};                                \
    }

SCAN(uint8_t)
SCAN(uint16_t)
SCAN(uint32_t)

/* The symbols of a str or a bytes-like object, read where they lie. */
typedef struct {
    Py_buffer buffer; /* held for a bytes-like text; empty for a str */
    const void *data;
    int kind;
    Py_ssize_t n;
} Text;

static int
text_open(PyObject *object, Text *text)
{
    *text = (Text){.kind = PyUnicode_1BYTE_KIND};
    if (PyUnicode_Check(object)) {
        if (PyUnicode_READY(object) < 0)
            return -1;
        text->kind = PyUnicode_KIND(object);
        text->data = PyUnicode_DATA(object);
        text->n = PyUnicode_GET_LENGTH(object);
        return 0;
    }
    if (PyObject_GetBuffer(object, &text->buffer, PyBUF_SIMPLE) < 0)
        return -1;
    text->data = text->buffer.buf;
    text->n = text->buffer.len;
    return 0;
}

/* Centers [start, stop) of text into radii, carrying state. */
static inline __attribute__((always_inline)) void
scan_range(const Text *text, int32_t *radii, ScanState *state, int64_t start, int64_t stop)
{
    if (text->kind == PyUnicode_1BYTE_KIND)
        scan_uint8_t(text->data, text->n, radii, state, start, stop);
    else if (text->kind == PyUnicode_2BYTE_KIND)
        scan_uint16_t(text->data, text->n, radii, state, start, stop);
    else
        scan_uint32_t(text->data, text->n, radii, state, start, stop);
}

/* scan(text) -> (table, comparisons, center): text is a str or a
   bytes-like object of n symbols, table a new bytearray of its 2n+1 radii
   as int32, not zero-filled: SCAN_START writes every entry before it
   reads it. */
static PyObject *
scan(PyObject *Py_UNUSED(self), PyObject *object)
{
    Text text;
    if (text_open(object, &text) < 0)
        return NULL;
    int64_t size = 2 * text.n + 1;
    PyObject *table = PyByteArray_FromStringAndSize(NULL, 4 * size);
    PyObject *result = NULL;
    if (table != NULL) {
        ScanState state = SCAN_START;
        scan_range(&text, (int32_t *)PyByteArray_AS_STRING(table), &state, 0, size);
        result = Py_BuildValue("NLL", table, (long long)state.comparisons, (long long)state.best);
    }
    PyBuffer_Release(&text.buffer);
    return result;
}

/* "00" to "99": two digits per division. */
static const char PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* v < 10^4 as exactly four digits, zero-padded. */
static inline void put4(char *p, uint32_t v)
{
    memcpy(p, PAIRS + 2 * (v / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (v % 100), 2);
}

/* v < 10^4 without leading zeros; returns the end. The digit count is
   known before any digit is written, so each lands in its final place. */
static inline char *put_lead(char *p, uint32_t v)
{
    if (v < 10) {
        *p = (char)('0' + v);
        return p + 1;
    }
    if (v < 100) {
        memcpy(p, PAIRS + 2 * v, 2);
        return p + 2;
    }
    if (v < 1000) {
        *p = (char)('0' + v / 100);
        memcpy(p + 1, PAIRS + 2 * (v % 100), 2);
        return p + 3;
    }
    put4(p, v);
    return p + 4;
}

/* v in decimal as 4-digit groups: the leading group without zeros, every
   later group padded to four digits; returns the end. */
static inline char *put_decimal(char *p, uint32_t v)
{
    if (v < 10000)
        return put_lead(p, v);
    p = put_decimal(p, v / 10000);
    put4(p, v % 10000);
    return p + 4;
}

/* radii[start:stop], none of them negative, as decimals, each followed
   by a comma, into out, which holds FORMAT_BYTES per entry; returns the
   end. */
static char *
format_range(const int32_t *radii, Py_ssize_t start, Py_ssize_t stop, char *end)
{
    for (Py_ssize_t i = start; i < stop; i++) {
        uint32_t radius = (uint32_t)radii[i];
        if (radius < 10) {
            end[0] = (char)('0' + radius);
            end[1] = ',';
            end += 2;
            continue;
        }
        end = put_decimal(end, radius);
        *end++ = ',';
    }
    return end;
}

/* What the scanner thread and the writing thread share. The scanner
   publishes under lock how far the table is final; the writer sets quit
   when it stops early, and the scanner stops after its current chunk. */
typedef struct {
    Text text;
    int32_t *radii;
    int64_t size, chunk;
    ScanState state;
    pthread_mutex_t lock;
    pthread_cond_t moved;
    int64_t done; /* radii[0:done] are final */
    int quit;
} Pipeline;

static void *
scanner(void *arg)
{
    Pipeline *p = arg;
    int quit = 0;
    for (int64_t start = 0; start < p->size && !quit; start += p->chunk) {
        int64_t stop = start + p->chunk < p->size ? start + p->chunk : p->size;
        scan_range(&p->text, p->radii, &p->state, start, stop);
        pthread_mutex_lock(&p->lock);
        p->done = stop;
        quit = p->quit;
        pthread_cond_signal(&p->moved);
        pthread_mutex_unlock(&p->lock);
    }
    return NULL;
}

/* Scan p's table and pass each chunk of it, formatted into buffer, to
   write; -1 with an exception set if write or a signal handler raised. */
static int
write_chunks(Pipeline *p, PyObject *write, PyObject *buffer)
{
    PyObject *view = PyMemoryView_FromObject(buffer);
    if (view == NULL)
        return -1;
    pthread_t thread;
    /* a table of one chunk is scanned inline, as is any table if no thread starts */
    int threaded = p->size > p->chunk && pthread_create(&thread, NULL, scanner, p) == 0;
    int failed = 0;
    for (int64_t start = 0; start < p->size && !failed; start += p->chunk) {
        int64_t stop = start + p->chunk < p->size ? start + p->chunk : p->size;
        if (threaded) {
            Py_BEGIN_ALLOW_THREADS
            pthread_mutex_lock(&p->lock);
            while (p->done < stop)
                pthread_cond_wait(&p->moved, &p->lock);
            pthread_mutex_unlock(&p->lock);
            Py_END_ALLOW_THREADS
        } else {
            scan_range(&p->text, p->radii, &p->state, start, stop);
        }
        if (PyErr_CheckSignals() < 0) {
            failed = 1;
            break;
        }
        char *base = PyByteArray_AS_STRING(buffer);
        char *end = format_range(p->radii, start, stop, base);
        if (stop == p->size)
            end[-1] = '\n'; /* in place of the last comma */
        PyObject *slice = PySequence_GetSlice(view, 0, end - base);
        PyObject *written = slice ? PyObject_CallOneArg(write, slice) : NULL;
        failed = written == NULL;
        Py_XDECREF(written);
        Py_XDECREF(slice);
    }
    if (threaded) {
        pthread_mutex_lock(&p->lock);
        p->quit = failed;
        pthread_mutex_unlock(&p->lock);
        Py_BEGIN_ALLOW_THREADS
        pthread_join(thread, NULL);
        Py_END_ALLOW_THREADS
    }
    Py_DECREF(view);
    return failed ? -1 : 0;
}

/* write_radii(text, write, chunk) -> (comparisons, center): scan text as
   scan does and call write with each chunk entries of the table as the
   decimals str() gives, comma separated, a comma between chunks and a
   newline at the end, as a memoryview of one reused bytearray. If write
   raises, the scan stops and the exception propagates. Memory: the
   4(2n+1)-byte table and FORMAT_BYTES per chunk entry. */
static PyObject *
write_radii(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *object, *write;
    Py_ssize_t chunk;
    if (!PyArg_ParseTuple(args, "OOn", &object, &write, &chunk))
        return NULL;
    if (chunk < 1)
        return PyErr_Format(PyExc_ValueError, "chunk must be at least 1, got %zd", chunk);
    Pipeline p = {.state = SCAN_START, .lock = PTHREAD_MUTEX_INITIALIZER, .moved = PTHREAD_COND_INITIALIZER};
    if (text_open(object, &p.text) < 0)
        return NULL;
    p.size = 2 * p.text.n + 1;
    p.chunk = chunk < p.size ? chunk : p.size;
    /* unzeroed: the page faults of a fresh table land in the scan */
    p.radii = PyMem_RawMalloc(4 * p.size);
    PyObject *buffer = p.radii ? PyByteArray_FromStringAndSize(NULL, FORMAT_BYTES * p.chunk) : PyErr_NoMemory();
    PyObject *result = NULL;
    if (buffer != NULL && write_chunks(&p, write, buffer) == 0)
        result = Py_BuildValue("LL", (long long)p.state.comparisons, (long long)p.state.best);
    Py_XDECREF(buffer);
    PyMem_RawFree(p.radii);
    PyBuffer_Release(&p.text.buffer);
    return result;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_O, "scan(text) -> (table, comparisons, center)"},
    {"write_radii", write_radii, METH_VARARGS, "write_radii(text, write, chunk) -> (comparisons, center)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "_manacher", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__manacher(void) { return PyModule_Create(&module); }
