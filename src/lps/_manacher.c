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

   Both entry points allocate the table themselves, unzeroed, and each
   runs at most one POSIX thread besides the calling one. scan returns
   the table whole. On a table of at least SPLIT_SIZE entries with two
   differing symbols near its middle, a helper thread scans the second
   half while the calling thread scans the first, which then joins the
   helper and resynchronizes to its scan (split_scan); the radii, counts
   and centers are the sequential scan's. write_radii, lps radii's path,
   formats and writes each chunk of the table as soon as the scan has
   passed that chunk: on a table longer than one chunk it scans on a
   thread of its own, which never holds the GIL, while the calling
   thread formats and writes behind it. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

/* Output bytes per formatted entry: "1073741823", the largest radius a
   table of 2n+1 < 2^31 entries holds, and a comma. */
#define FORMAT_BYTES 11

/* Where a scan stands between two ranges: the reference center and the
   right edge of its palindrome, the best center and its radius, the
   comparisons made so far, and touch, the last center whose expansion
   stopped at a floor above 0 (see SCAN). */
typedef struct {
    int64_t ref, right, best, best_len, comparisons, touch;
} ScanState;

/* right = -1: no palindrome is known yet, so center 0 expands (over no
   symbols) instead of reading its own entry as a mirror. Every entry is
   then written before it is read, and the table needs no zero fill. */
static const ScanState SCAN_START = {.right = -1};

/* A mirror copy never exceeds the radius it copies, which an earlier
   center already holds, so only an expansion can raise the best length;
   testing it with > keeps the leftmost center on ties. An expansion reads
   no symbol below floor: a scan from floor 0 is the scan of the whole
   text, and split_scan's helper scans the suffix from its floor as if the
   text began there. Only a scan with a floor keeps touch, so the test
   folds away from every loop compiled for floor 0. The loop is inlined
   into each caller: one shared out-of-line copy scanned unary text 5-10%
   slower, in how the compiler laid out its branches, than a loop compiled
   where its start and its state are known. */
#define SCAN(T)                                                                                       \
    static inline __attribute__((always_inline)) void                                                 \
    scan_##T(const T *text, int64_t n, int64_t floor, int32_t *radii, ScanState *state, int64_t start, \
             int64_t stop)                                                                            \
    {                                                                                                 \
        int64_t comparisons = state->comparisons, ref = state->ref, right = state->right;             \
        int64_t best = state->best, best_len = state->best_len, touch = state->touch;                 \
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
            while (lo >= floor && hi < n) {                                                           \
                comparisons++;                                                                        \
                if (text[lo] != text[hi])                                                             \
                    break;                                                                            \
                lo--;                                                                                 \
                hi++;                                                                                 \
            }                                                                                         \
            if (floor > 0 && lo < floor)                                                              \
                touch = j;                                                                            \
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
        *state = (ScanState){ref, right, best, best_len, comparisons, touch};                         \
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

/* Centers [start, stop) of text into radii, carrying state, reading no
   symbol below floor. */
static inline __attribute__((always_inline)) void
scan_range(const Text *text, int64_t floor, int32_t *radii, ScanState *state, int64_t start, int64_t stop)
{
    if (text->kind == PyUnicode_1BYTE_KIND)
        scan_uint8_t(text->data, text->n, floor, radii, state, start, stop);
    else if (text->kind == PyUnicode_2BYTE_KIND)
        scan_uint16_t(text->data, text->n, floor, radii, state, start, stop);
    else
        scan_uint32_t(text->data, text->n, floor, radii, state, start, stop);
}

/* Tables of at least SPLIT_SIZE entries are scanned on two threads.
   Starting and joining the helper costs about 40 us, so the split breaks
   even near 2^14 entries; at 2^17 it scans random text in 0.68 ms against
   1.1-1.2 ms on one thread (2-core x86_64 host, in process). The module
   exports the value for its tests. */
#define SPLIT_SIZE (1 << 17)
/* The helper's range is cut into STEPS steps of equal length. */
#define STEPS 64

/* What split_scan's caller and its helper share. The helper scans centers
   [m, size) from the floor m/2 and records its state at the start of each
   step in marks; it stops at a step start once quit is set, after which
   marks[0..done] hold. */
typedef struct {
    const Text *text;
    int32_t *radii;
    int64_t m, size, done;
    ScanState marks[STEPS + 1];
    atomic_int quit;
} Split;

/* The first center of step i of the helper's range; step STEPS is size. */
static inline int64_t
step_start(const Split *s, int64_t i)
{
    return s->m + (s->size - s->m) * i / STEPS;
}

static void *
helper(void *arg)
{
    Split *s = arg;
    /* right = m - 1: center m expands, stops at the floor at once (a
       touch) and writes 0, its true radius since its neighbours differ */
    ScanState state = {.ref = s->m, .right = s->m - 1, .best = s->m, .touch = s->m};
    int64_t i = 0;
    for (;; i++) {
        s->marks[i] = state;
        if (i == STEPS || atomic_load_explicit(&s->quit, memory_order_relaxed))
            break;
        scan_range(s->text, s->m / 2, s->radii, &state, step_start(s, i), step_start(s, i + 1));
    }
    s->done = i;
    return NULL;
}

/* The even center at which split_scan splits a table of size entries: the
   first boundary at or after the middle whose two neighbouring symbols
   differ, searched within one step; 0 if there is none. */
static int64_t
split_point(const Text *text, int64_t size)
{
    if (size < SPLIT_SIZE)
        return 0;
    int64_t middle = size / 2 + (size / 2 & 1);
    for (int64_t m = middle; m < middle + (size - middle) / STEPS; m += 2)
        if (PyUnicode_READ(text->kind, text->data, m / 2 - 1) != PyUnicode_READ(text->kind, text->data, m / 2))
            return m;
    return 0;
}

/* All size centers of text into radii from SCAN_START, as one scan_range
   would write them, with the same comparisons and best center, on up to
   two threads.

   From a split point m on, a helper thread scans [m, size) with floor
   m/2, while this thread scans [0, m). Every palindrome the helper knows
   lies right of m, so every reference of its scan, and every mirror
   center k it reads, lies at or right of m. Its entry at k is the true
   radius cut back to the floor: min(r, k - m). A cut entry reaches back
   to m, so it is never strictly inside a reference palindrome, which
   also lies right of m, and the true entry, reaching at least as far
   left, is not inside either: a cut entry never changes a mirror
   decision, and it is never copied. The helper's scan therefore differs
   from the sequential one only through its state, (ref, right), and
   through an expansion stopped at the floor, a touch.

   When this thread has reached m, it makes the helper stop after its
   current step and joins it. Then it scans on from m, step by step,
   until it reaches a step start c past the helper's last touch where its
   own (ref, right) equals the helper's mark. From c on, the helper's scan
   is the sequential scan: the same decisions, the same comparisons, the
   same entries, whether the mirror entry it reads lies before c, where
   this thread has rewritten it, or after. So this thread adds the
   helper's comparisons after c, takes over its end state, and scans
   whatever the helper did not reach. The best center stays this thread's
   unless the helper's is strictly longer, which puts it at or after c:
   an entry the helper wrote before c is at most the true one, which this
   thread has already seen, and every entry it wrote from c on is true.

   This thread scans alone below SPLIT_SIZE, when no thread starts, and
   without a split point: then the text around the middle is one symbol
   repeated, and its palindromes cross any point the helper could start
   from. Memory: one thread stack and the marks, whatever the text holds. */
static void
split_scan(const Text *text, int32_t *radii, ScanState *state, int64_t size)
{
    Split s = {.text = text, .radii = radii, .m = split_point(text, size), .size = size};
    pthread_t thread;
    if (s.m == 0 || pthread_create(&thread, NULL, helper, &s) != 0) {
        scan_range(text, 0, radii, state, 0, size);
        return;
    }
    scan_range(text, 0, radii, state, 0, s.m);
    atomic_store(&s.quit, 1);
    pthread_join(thread, NULL);
    const ScanState *end = &s.marks[s.done];
    int64_t i = 0;
    for (; i < s.done; i++) {
        int64_t c = step_start(&s, i);
        const ScanState *mark = &s.marks[i];
        if (c > end->touch && state->ref == mark->ref && state->right == mark->right) {
            int helpers = end->best_len > state->best_len;
            *state = (ScanState){
                .ref = end->ref,
                .right = end->right,
                .best = helpers ? end->best : state->best,
                .best_len = helpers ? end->best_len : state->best_len,
                .comparisons = state->comparisons + end->comparisons - mark->comparisons,
            };
            break;
        }
        scan_range(text, 0, radii, state, c, step_start(&s, i + 1));
    }
    scan_range(text, 0, radii, state, step_start(&s, s.done), size);
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
        split_scan(&text, (int32_t *)PyByteArray_AS_STRING(table), &state, size);
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
        scan_range(&p->text, 0, p->radii, &p->state, start, stop);
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
            scan_range(&p->text, 0, p->radii, &p->state, start, stop);
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

PyMODINIT_FUNC
PyInit__manacher(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "SPLIT_SIZE", SPLIT_SIZE) < 0)
        Py_CLEAR(m);
    return m;
}
