from hypothesis import settings

# Every property test draws the same examples on every run: a failure
# seen once is seen again, and a pass is not luck of the draw.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
