/* Compiled index-mapped Manacher scan: the extension module lps/native.py
   builds and loads.

   The scan is the loop of lps.core.python_radii, line for line. It reads
   the text where it lies: a str through its PEP 393 array of 1, 2 or 4
   bytes per code point, bytes and other buffers as uint8. It writes the
   2n+1 radii into a caller-supplied int32 table and returns the number of
   real symbol comparisons, the count the Python engine reports, and the
   leftmost center of the longest palindrome. The caller keeps 2n+1 below
   2^31, so every index and radius fits the table. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* A mirror copy never exceeds the radius it copies, which an earlier
   center already holds, so only an expansion can raise the best length;
   testing it with > keeps the leftmost center on ties. */
#define SCAN(T)                                                                  \
    static int64_t scan_##T(const T *text, int64_t n, int32_t *radii, int64_t *center) \
    {                                                                            \
        int64_t comparisons = 0, ref = 0, right = 0, best = 0, best_len = 0;     \
        for (int64_t j = 0; j < 2 * n + 1; j++) {                                \
            int64_t radius;                                                      \
            if (j <= right) {                                                    \
                int64_t k = 2 * ref - j;                                         \
                if (k - radii[k] > 2 * ref - right) {                            \
                    radii[j] = radii[k];                                         \
                    continue;                                                    \
                }                                                                \
                radius = right - j;                                              \
            } else {                                                             \
                radius = j & 1;                                                  \
            }                                                                    \
            int64_t lo = ((j - radius) >> 1) - 1, hi = (j + radius) >> 1;       \
            while (lo >= 0 && hi < n) {                                          \
                comparisons++;                                                   \
                if (text[lo] != text[hi])                                        \
                    break;                                                       \
                lo--;                                                            \
                hi++;                                                            \
            }                                                                    \
            radius = hi - lo - 1;                                                \
            radii[j] = (int32_t)radius;                                          \
            if (radius > best_len) {                                             \
                best = j;                                                        \
                best_len = radius;                                               \
            }                                                                    \
            if (j + radius > right) {                                            \
                ref = j;                                                         \
                right = j + radius;                                              \
            }                                                                    \
        }                                                                        \
        *center = best;                                                          \
        return comparisons;                                                      \
    }

SCAN(uint8_t)
SCAN(uint16_t)
SCAN(uint32_t)

/* scan(text, table) -> (comparisons, center): text is a str or a bytes-like
   object of n symbols, table a writable buffer of at least 2n+1 int32. */
static PyObject *
scan(PyObject *self, PyObject *args)
{
    PyObject *text, *table;
    if (!PyArg_ParseTuple(args, "OO", &text, &table))
        return NULL;
    Py_buffer symbols = {0}, out;
    const void *data;
    int kind = PyUnicode_1BYTE_KIND;
    Py_ssize_t n;
    if (PyUnicode_Check(text)) {
        if (PyUnicode_READY(text) < 0)
            return NULL;
        kind = PyUnicode_KIND(text);
        data = PyUnicode_DATA(text);
        n = PyUnicode_GET_LENGTH(text);
    } else {
        if (PyObject_GetBuffer(text, &symbols, PyBUF_SIMPLE) < 0)
            return NULL;
        data = symbols.buf;
        n = symbols.len;
    }
    if (PyObject_GetBuffer(table, &out, PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&symbols);
        return NULL;
    }
    PyObject *result = NULL;
    if (out.len / 4 < 2 * n + 1) {
        PyErr_Format(PyExc_ValueError, "a table of %zd bytes cannot hold %zd radii", out.len, 2 * n + 1);
    } else {
        int64_t comparisons, center;
        if (kind == PyUnicode_1BYTE_KIND)
            comparisons = scan_uint8_t(data, n, out.buf, &center);
        else if (kind == PyUnicode_2BYTE_KIND)
            comparisons = scan_uint16_t(data, n, out.buf, &center);
        else
            comparisons = scan_uint32_t(data, n, out.buf, &center);
        result = Py_BuildValue("LL", (long long)comparisons, (long long)center);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&symbols);
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
    if (v < 100000000) {
        p = put_lead(p, v / 10000);
        put4(p, v % 10000);
        return p + 4;
    }
    uint32_t low = v % 100000000;
    p = put_lead(p, v / 100000000);
    put4(p, low / 10000);
    put4(p + 4, low % 10000);
    return p + 8;
}

/* format_radii(radii, start, stop, out) -> bytes written: radii[start:stop]
   of an array('i') as comma-separated decimals, the text str() gives for
   each entry, into the writable buffer out, 12 bytes per entry:
   "-2147483648" plus a comma. */
static PyObject *
format_radii(PyObject *self, PyObject *args)
{
    PyObject *table, *buffer;
    Py_ssize_t start, stop;
    if (!PyArg_ParseTuple(args, "OnnO", &table, &start, &stop, &buffer))
        return NULL;
    Py_buffer in, out;
    if (PyObject_GetBuffer(table, &in, PyBUF_FORMAT) < 0)
        return NULL;
    const char *format = in.format ? in.format : "B";
    if (in.itemsize != 4 || strcmp(format, "i") != 0) {
        PyErr_Format(PyExc_TypeError, "the kernel formats array('i') tables, got format '%s'", format);
        PyBuffer_Release(&in);
        return NULL;
    }
    if (PyObject_GetBuffer(buffer, &out, PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&in);
        return NULL;
    }
    PyObject *result = NULL;
    Py_ssize_t count = in.len / 4;
    if (!(0 <= start && start <= stop && stop <= count)) {
        PyErr_Format(PyExc_ValueError, "slice %zd:%zd outside a table of %zd entries", start, stop, count);
    } else if (out.len / 12 < stop - start) {
        PyErr_Format(PyExc_ValueError, "%zd bytes cannot hold %zd formatted entries", out.len, stop - start);
    } else {
        const int32_t *radii = (const int32_t *)in.buf;
        char *end = out.buf;
        /* a comma after every entry, the last one dropped below */
        for (Py_ssize_t i = start; i < stop; i++) {
            uint32_t magnitude = (uint32_t)radii[i];
            if (magnitude < 10) {
                end[0] = (char)('0' + magnitude);
                end[1] = ',';
                end += 2;
                continue;
            }
            if (radii[i] < 0) {
                *end++ = '-';
                magnitude = -magnitude;
            }
            end = put_decimal(end, magnitude);
            *end++ = ',';
        }
        if (stop > start)
            end--;
        result = PyLong_FromSsize_t(end - (char *)out.buf);
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&in);
    return result;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, "scan(text, table) -> (comparisons, center)"},
    {"format_radii", format_radii, METH_VARARGS, "format_radii(radii, start, stop, out) -> bytes written"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "_manacher", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__manacher(void) { return PyModule_Create(&module); }
