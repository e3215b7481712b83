"""DPG solver for first-order linear transport with near-optimal test spaces."""
