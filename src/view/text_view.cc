#include "view/text_view.h"

#include <utility>

#include "platform/logging.h"

namespace rchdroid {

TextView::TextView(std::string id) : View(std::move(id))
{
}

void
TextView::setText(std::string text)
{
    requireAlive("setText");
    // Resource text turns into user state, which a full save keeps.
    if (text_from_resource_)
        stateChanged();
    text_from_resource_ = false;
    if (text == text_)
        return;
    text_ = std::move(text);
    invalidate();
}

void
TextView::setTextFromResource(std::string text)
{
    requireAlive("setTextFromResource");
    text_ = std::move(text);
    text_from_resource_ = true;
    invalidate();
}

void
TextView::setTextSizeSp(double sp)
{
    requireAlive("setTextSize");
    if (sp == text_size_sp_)
        return;
    text_size_sp_ = sp;
    invalidate();
}

void
TextView::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<TextView *>(&target);
    RCH_ASSERT(peer, "Text migration onto ", target.typeName());
    if (text_from_resource_) {
        // Configuration-derived text: the peer already resolved its own
        // variant; carrying ours across would undo a locale switch.
        peer->invalidate();
        return;
    }
    peer->setText(text_);
}

std::size_t
TextView::memoryFootprintBytes() const
{
    // TextView carries a text layout cache proportional to content.
    return View::memoryFootprintBytes() + 256 + text_.size() * 2;
}

void
TextView::onSaveState(Bundle &state, bool full) const
{
    // Stock Android TextView does not freeze its text by default (only
    // EditText does) — this is the mechanism behind the paper's "state
    // loss (text)" issue class. RCHDroid's explicit snapshot saves it —
    // unless the text came straight from a resource, in which case the
    // new instance must re-resolve it under its own configuration.
    if (full && !text_from_resource_)
        state.putString("text", text_);
}

void
TextView::onRestoreState(const Bundle &state)
{
    if (state.contains("text")) {
        text_ = state.getString("text");
        text_from_resource_ = false; // restored text is user state
    }
}

Button::Button(std::string id) : TextView(std::move(id))
{
}

void
Button::setOnClickListener(std::function<void()> listener)
{
    listener_ = std::move(listener);
}

void
Button::performClick()
{
    requireAlive("performClick");
    if (listener_)
        listener_();
}

EditText::EditText(std::string id) : TextView(std::move(id))
{
}

void
EditText::setHint(std::string hint)
{
    requireAlive("setHint");
    hint_ = std::move(hint);
    invalidate();
}

void
EditText::setCursorPosition(int position)
{
    requireAlive("setCursorPosition");
    RCH_ASSERT(position >= 0, "negative cursor");
    if (position == cursor_)
        return;
    // Saved state, but a cursor move redraws nothing: no invalidate().
    cursor_ = position;
    stateChanged();
}

void
EditText::typeText(const std::string &typed)
{
    requireAlive("typeText");
    std::string current = text();
    current.insert(static_cast<std::size_t>(
                       std::min<std::size_t>(static_cast<std::size_t>(cursor_),
                                             current.size())),
                   typed);
    cursor_ += static_cast<int>(typed.size());
    setText(std::move(current));
}

void
EditText::applyMigration(View &target) const
{
    TextView::applyMigration(target);
    if (auto *peer = dynamic_cast<EditText *>(&target))
        peer->setCursorPosition(cursor_);
}

void
EditText::onSaveState(Bundle &state, bool full) const
{
    (void)full;
    // EditText freezes its text by default on Android (freezesText).
    state.putString("text", text());
    state.putInt("cursor", cursor_);
}

void
EditText::onRestoreState(const Bundle &state)
{
    TextView::onRestoreState(state);
    cursor_ = static_cast<int>(state.getInt("cursor", cursor_));
}

CheckBox::CheckBox(std::string id) : Button(std::move(id))
{
}

void
CheckBox::setChecked(bool checked)
{
    requireAlive("setChecked");
    if (checked == checked_)
        return;
    checked_ = checked;
    invalidate();
}

void
CheckBox::applyMigration(View &target) const
{
    Button::applyMigration(target);
    if (auto *peer = dynamic_cast<CheckBox *>(&target))
        peer->setChecked(checked_);
}

void
CheckBox::onSaveState(Bundle &state, bool full) const
{
    Button::onSaveState(state, full);
    // CompoundButton saves its checked state by default.
    state.putBool("checked", checked_);
}

void
CheckBox::onRestoreState(const Bundle &state)
{
    Button::onRestoreState(state);
    checked_ = state.getBool("checked", checked_);
}

} // namespace rchdroid
