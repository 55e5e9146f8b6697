#include "fleet/breaker.hpp"

#include "common/error.hpp"

namespace vaq::fleet
{

CircuitBreaker::CircuitBreaker(BreakerOptions options)
    : _options(options)
{
    require(_options.windowSize > 0,
            "breaker window size must be positive");
    require(_options.halfOpenProbes > 0,
            "breaker half-open probe count must be positive");
    _window.assign(_options.windowSize, false);
}

void
CircuitBreaker::applyCooldown(double nowUs) const
{
    if (_state == BreakerState::Open &&
        nowUs >= _openedAtUs + _options.cooldownUs) {
        _state = BreakerState::HalfOpen;
        _probesInFlight = 0;
        _probeSuccesses = 0;
    }
}

BreakerState
CircuitBreaker::state(double nowUs) const
{
    applyCooldown(nowUs);
    return _state;
}

double
CircuitBreaker::failureRate() const
{
    if (_windowFill == 0)
        return 0.0;
    return static_cast<double>(_windowFailures) /
           static_cast<double>(_windowFill);
}

bool
CircuitBreaker::wouldAllow(double nowUs) const
{
    applyCooldown(nowUs);
    switch (_state) {
    case BreakerState::Closed: return true;
    case BreakerState::Open: return false;
    case BreakerState::HalfOpen:
        return _probesInFlight < _options.halfOpenProbes;
    }
    return true;
}

bool
CircuitBreaker::acquire(double nowUs)
{
    applyCooldown(nowUs);
    switch (_state) {
    case BreakerState::Closed: return true;
    case BreakerState::Open: return false;
    case BreakerState::HalfOpen:
        if (_probesInFlight >= _options.halfOpenProbes)
            return false;
        ++_probesInFlight;
        return true;
    }
    return true;
}

void
CircuitBreaker::open(double nowUs)
{
    _state = BreakerState::Open;
    _openedAtUs = nowUs;
    _probesInFlight = 0;
    _probeSuccesses = 0;
    _window.assign(_options.windowSize, false);
    _windowNext = 0;
    _windowFill = 0;
    _windowFailures = 0;
    ++_opens;
}

void
CircuitBreaker::recordSuccess(double nowUs)
{
    applyCooldown(nowUs);
    if (_state == BreakerState::Open)
        return; // stale outcome from before the trip
    if (_state == BreakerState::HalfOpen) {
        if (_probesInFlight > 0)
            --_probesInFlight;
        if (++_probeSuccesses >= _options.halfOpenProbes) {
            _state = BreakerState::Closed;
            _probesInFlight = 0;
            _probeSuccesses = 0;
        }
        return;
    }
    if (_window[_windowNext] && _windowFill == _options.windowSize)
        --_windowFailures;
    _window[_windowNext] = false;
    _windowNext = (_windowNext + 1) % _options.windowSize;
    if (_windowFill < _options.windowSize)
        ++_windowFill;
}

void
CircuitBreaker::recordFailure(double nowUs)
{
    applyCooldown(nowUs);
    if (_state == BreakerState::Open)
        return;
    if (_state == BreakerState::HalfOpen) {
        open(nowUs); // any probe failure re-opens
        return;
    }
    if (_window[_windowNext] && _windowFill == _options.windowSize)
        --_windowFailures;
    _window[_windowNext] = true;
    ++_windowFailures;
    _windowNext = (_windowNext + 1) % _options.windowSize;
    if (_windowFill < _options.windowSize)
        ++_windowFill;
    if (_windowFill >= _options.minSamples &&
        failureRate() >= _options.failureThreshold)
        open(nowUs);
}

void
CircuitBreaker::forceOpen(double nowUs)
{
    applyCooldown(nowUs);
    open(nowUs);
}

} // namespace vaq::fleet
