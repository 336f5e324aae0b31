int arr[12] = {9, -3, 5, 1, 12, -7, 0, 4, 4, 100, -50, 2};

void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }

int partition(int *v, int lo, int hi) {
    int pivot = v[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
        if (v[j] < pivot) { i++; swap(&v[i], &v[j]); }
    }
    swap(&v[i + 1], &v[hi]);
    return i + 1;
}

void quicksort(int *v, int lo, int hi) {
    if (lo >= hi) return;
    int p = partition(v, lo, hi);
    quicksort(v, lo, p - 1);
    quicksort(v, p + 1, hi);
}

int main() {
    quicksort(arr, 0, 11);
    return arr[0];   /* smallest element */
}
